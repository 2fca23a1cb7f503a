package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
)

// SessionConfig is the JSON-serializable session shape shared by the
// cluster create API and every ship request: followers must host the
// same strategies the primary runs, and a config that travels with the
// stream keeps them stateless across restarts.
type SessionConfig struct {
	Strategies   []string `json:"strategies,omitempty"`
	Mailbox      int      `json:"mailbox,omitempty"`
	SyncEvery    int      `json:"sync_every,omitempty"`
	SegmentBytes int      `json:"segment_bytes,omitempty"`
	// CompactEvery asks the primary's node to run coordinated WAL
	// compaction roughly every that many events: a barrier record is
	// written and shipped, followers compact their own logs behind it,
	// and the primary truncates once the fleet has acknowledged past
	// the barrier. 0 disables (the log grows forever).
	CompactEvery int `json:"compact_every,omitempty"`
	// Epoch counts the session's leadership generations: 1 at creation,
	// +1 on every promotion (unilateral failover or handoff adoption).
	// It travels with every ship and adopt request and is persisted in
	// the sidecar, so after a partition heals, two members both claiming
	// to lead can resolve deterministically: the LOWER epoch — the
	// leadership superseded by a legitimate (quorum-side) promotion —
	// yields, wipes its copy, and rebuilds from the winner. Clients never
	// set it.
	Epoch int `json:"epoch,omitempty"`
}

// serveConfig materializes the serve.Config for this session. Cluster
// sessions never self-compact: truncation is coordinated by the node
// (compaction barriers) so it can never race the shippers tailing the
// log.
func (c SessionConfig) serveConfig() serve.Config {
	return serve.Config{
		Strategies:   c.Strategies,
		Mailbox:      c.Mailbox,
		CompactEvery: -1,
		SyncEvery:    c.SyncEvery,
		SegmentBytes: c.SegmentBytes,
	}
}

// shipContentType marks a v2 ship body: one JSON header line (shipReq)
// terminated by '\n', followed by Count raw binary WAL frames — the
// exact bytes the primary's WAL holds, shipped without re-encoding.
const shipContentType = "application/x-wal-ship"

// shipReq is one replication batch's header: the session's config (so a
// follower can build or reopen its replica cold), the sequence of the
// first shipped event, the frame count that follows the header line,
// and the newest compaction-barrier sequence the primary has logged
// (0 when none). Primary names the sender so followers know whom they
// are following — and whom to fetch a catch-up snapshot from.
type shipReq struct {
	Session string        `json:"session"`
	Primary MemberID      `json:"primary"`
	Config  SessionConfig `json:"config"`
	From    int           `json:"from"`
	Count   int           `json:"count"`
	Barrier int           `json:"barrier,omitempty"`
	// Batch is the shipper's per-link batch counter and SentUnixNs the
	// primary's clock when the batch left — the correlation fields that
	// let a merged cross-member timeline (and the follower's skew
	// estimate) line this batch up with the follower's own records.
	Batch      int64 `json:"batch,omitempty"`
	SentUnixNs int64 `json:"sent_unix_ns,omitempty"`
}

// shipResp acknowledges a batch: Acked is the follower's durable
// sequence number; Gap reports the follower could neither apply the
// batch nor catch up by snapshot this round — the shipper retries
// later.
type shipResp struct {
	Acked int  `json:"acked"`
	Gap   bool `json:"gap,omitempty"`
	// Batch echoes the request's batch ID; RecvUnixNs and AckUnixNs are
	// the follower's clock at request receipt and at ack send. With the
	// primary's send/receive times they form one NTP-style clock-offset
	// sample per acknowledged batch (Node.noteClockSample).
	Batch      int64 `json:"batch,omitempty"`
	RecvUnixNs int64 `json:"recv_unix_ns,omitempty"`
	AckUnixNs  int64 `json:"ack_unix_ns,omitempty"`
}

// maxShipEvents caps one ship request's event count: a follower behind
// the stream catches up over several bounded requests instead of one
// body holding the entire backlog.
const maxShipEvents = 512

// defaultFeedBacklog caps how many decoded event records a session's
// feed keeps in memory for followers that have not acknowledged them.
// A follower that falls further behind than the cache retains is caught
// up by snapshot transfer instead — the primary never buffers a slow
// follower's backlog unboundedly.
const defaultFeedBacklog = 4096

// walFeed is the shared fan-out point of one led session's replication:
// ONE tailer reads the session's WAL (serve.TailWALLimit) into a
// bounded in-memory window of raw, already-encoded binary frames —
// exactly the bytes the log holds — and every follower's shipper is
// just a cursor into that window. N followers therefore cost one file
// read and ZERO re-encodes per record. The feed also carries the
// stream's coordination state: the newest compaction-barrier sequence
// seen (from barrier records, or from a compaction snapshot at the log
// head after the feed repositions).
type walFeed struct {
	mu      sync.Mutex
	pos     serve.WALPos
	seeded  bool // a snapshot record has established the seq cursor
	nextSeq int  // seq the next record appended to the window will carry
	base    int  // seq of entries[0] (meaningful when len(entries) > 0)
	entries [][]byte
	times   []int64 // unix-nano pull time of each entry (parallel to entries)
	barrier int     // newest compaction-barrier seq (0: none)
	cap     int
}

func newWALFeed(backlog int) *walFeed {
	if backlog <= 0 {
		backlog = defaultFeedBacklog
	}
	return &walFeed{cap: backlog}
}

// pull reads newly committed records into the window, up to the backlog
// cap. A gap (the log was compacted past the feed's position) restarts
// the read from the log's head, where the compaction snapshot re-seeds
// the cursor; records already held in the window are never duplicated.
func (fd *walFeed) pull(dir string) error {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	room := fd.cap - len(fd.entries)
	if room <= 0 {
		return nil
	}
	now := time.Now().UnixNano()
	recs, pos, _, err := serve.TailWALLimit(dir, fd.pos, room)
	if errors.Is(err, serve.ErrWALGap) {
		fd.pos = serve.WALPos{}
		fd.seeded = false
		recs, pos, _, err = serve.TailWALLimit(dir, fd.pos, room)
	}
	if err != nil {
		return err
	}
	for _, r := range recs {
		switch {
		case r.Snap != nil:
			// Log head (bootstrap) or a compaction snapshot: every event
			// at or below its seq is folded into it, and its position is
			// an implicit barrier — a follower past it may truncate too.
			fd.seeded = true
			fd.dropThroughLocked(r.Snap.Seq)
			if fd.nextSeq < r.Snap.Seq+1 {
				fd.nextSeq = r.Snap.Seq + 1
			}
			if fd.barrier < r.Snap.Seq {
				fd.barrier = r.Snap.Seq
			}
		case r.Barrier != nil:
			if fd.barrier < r.Barrier.Seq {
				fd.barrier = r.Barrier.Seq
			}
		case r.Ev != nil:
			if !fd.seeded {
				return fmt.Errorf("cluster: wal %s: event record precedes any snapshot", dir)
			}
			if r.Seq < fd.nextSeq {
				continue // already in the window (re-read after a reposition)
			}
			if r.Seq > fd.nextSeq {
				return fmt.Errorf("cluster: wal %s: stream skips from seq %d to %d", dir, fd.nextSeq, r.Seq)
			}
			if len(fd.entries) == 0 {
				fd.base = r.Seq
			}
			fd.entries = append(fd.entries, r.Frame)
			fd.times = append(fd.times, now)
			fd.nextSeq++
		}
	}
	fd.pos = pos
	return nil
}

// dropThroughLocked discards window entries with seq <= through.
func (fd *walFeed) dropThroughLocked(through int) {
	if len(fd.entries) == 0 {
		return
	}
	drop := through - fd.base + 1
	if drop <= 0 {
		return
	}
	if drop >= len(fd.entries) {
		fd.entries = nil
		fd.times = nil
		fd.base = 0
		return
	}
	fd.entries = fd.entries[drop:]
	fd.times = fd.times[drop:]
	fd.base = through + 1
}

// prune discards entries every current follower has acknowledged.
func (fd *walFeed) prune(minAcked int) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	fd.dropThroughLocked(minAcked)
}

// window returns up to max event frames starting at sequence from,
// along with the sequence of the first frame returned. A follower whose
// cursor precedes the window (its backlog was pruned, or it is brand
// new against a long-retained log) gets the window's start instead —
// the resulting gap makes the follower catch up by snapshot transfer.
// Returned frames are immutable shared buffers: callers copy them into
// a request body (appendShipBody) and never write through them.
func (fd *walFeed) window(from, max int) ([][]byte, int) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	if len(fd.entries) == 0 || from >= fd.nextSeq {
		return nil, from
	}
	if from < fd.base {
		from = fd.base
	}
	frames := fd.entries[from-fd.base:]
	if len(frames) > max {
		frames = frames[:max]
	}
	return frames, from
}

// endSeq is the sequence of the newest record the feed has read.
func (fd *walFeed) endSeq() int {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.nextSeq - 1
}

// lagSeconds reports how long the oldest record a follower has not
// acknowledged has been sitting in the window — the time dimension of
// the replication-lag SLI (0 when the follower is fully caught up, or
// when the unacked record is not in the window, e.g. right before a
// snapshot catch-up).
func (fd *walFeed) lagSeconds(acked int, now int64) float64 {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	if len(fd.entries) == 0 || acked >= fd.nextSeq-1 {
		return 0
	}
	idx := acked + 1 - fd.base
	if idx < 0 {
		idx = 0
	}
	if idx >= len(fd.times) {
		return 0
	}
	lag := float64(now-fd.times[idx]) / 1e9
	if lag < 0 {
		return 0
	}
	return lag
}

// barrierSeq is the newest compaction-barrier sequence seen (0: none).
func (fd *walFeed) barrierSeq() int {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.barrier
}

// shipper replicates one session to one follower: a cursor over the
// session's shared walFeed plus the follower's acknowledged offset.
// All file reading and record decoding lives in the feed; the shipper
// only slices the shared window into bounded batches. A shipper's
// methods are serialized by its mutex; the node's ship loop is the only
// steady-state caller.
type shipper struct {
	mu       sync.Mutex
	session  string
	follower MemberID
	cfg      SessionConfig
	cfgJSON  []byte // session config marshaled once: the header embeds it verbatim
	buf      []byte // reusable request-body buffer: batch assembly allocates nothing at steady state

	acked       int   // follower's last acknowledged sequence
	contacted   bool  // at least one successful exchange happened
	barrierSent int   // newest barrier seq delivered to the follower
	batchSeq    int64 // batches assembled on this link (the wire batch ID)

	// obs holds this link's replication-lag SLI children; updated by the
	// node's ship loop, never inside next (the zero-alloc path).
	obs shipperObs
}

func newShipper(session string, follower MemberID, cfg SessionConfig) *shipper {
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		// SessionConfig is a flat struct of ints, floats, and strings;
		// marshaling cannot fail.
		panic(fmt.Sprintf("cluster: marshal session config: %v", err))
	}
	return &shipper{session: session, follower: follower, cfg: cfg, cfgJSON: cfgJSON}
}

// shipBatch is one assembled ship request: the wire body (header line +
// raw frames, aliasing the shipper's reusable buffer — consume before
// the next call to next) plus the header fields the ship loop folds
// acknowledgements with.
type shipBatch struct {
	body    []byte
	from    int
	count   int
	barrier int
	id      int64 // wire batch ID
	sentNs  int64 // primary clock at assembly (the RTT/offset sample's t0)
}

// next assembles the follower's next ship request body from the shared
// feed, or false when there is nothing to send: no unacknowledged
// events in the window, a first contact already made, and no barrier
// news.
func (sh *shipper) next(fd *walFeed, primary MemberID) (shipBatch, bool) {
	from := sh.acked + 1
	frames, start := fd.window(from, maxShipEvents)
	barrier := fd.barrierSeq()
	if len(frames) == 0 && sh.contacted && barrier <= sh.barrierSent {
		return shipBatch{}, false
	}
	sh.batchSeq++
	sentNs := time.Now().UnixNano()
	sh.buf = appendShipBody(sh.buf[:0], sh.session, primary, sh.cfgJSON, start, barrier, frames, sh.batchSeq, sentNs)
	return shipBatch{body: sh.buf, from: start, count: len(frames), barrier: barrier, id: sh.batchSeq, sentNs: sentNs}, true
}

// appendShipBody assembles a ship request body into dst: the shipReq
// header as one JSON line (built by hand so steady-state assembly does
// not allocate), then the raw frames. The header field order matches
// shipReq's declaration for readability in captures; the receiver
// decodes it with encoding/json and does not care.
func appendShipBody(dst []byte, session string, primary MemberID, cfgJSON []byte, from, barrier int, frames [][]byte, batch, sentNs int64) []byte {
	dst = append(dst, `{"session":`...)
	dst = appendJSONString(dst, session)
	dst = append(dst, `,"primary":`...)
	dst = appendJSONString(dst, string(primary))
	dst = append(dst, `,"config":`...)
	dst = append(dst, cfgJSON...)
	dst = append(dst, `,"from":`...)
	dst = strconv.AppendInt(dst, int64(from), 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(len(frames)), 10)
	dst = append(dst, `,"barrier":`...)
	dst = strconv.AppendInt(dst, int64(barrier), 10)
	dst = append(dst, `,"batch":`...)
	dst = strconv.AppendInt(dst, batch, 10)
	dst = append(dst, `,"sent_unix_ns":`...)
	dst = strconv.AppendInt(dst, sentNs, 10)
	dst = append(dst, '}', '\n')
	for _, f := range frames {
		dst = append(dst, f...)
	}
	return dst
}

// appendJSONString appends s as a JSON string literal. Escaping covers
// everything encoding/json would escape for the identifiers that pass
// through here (session IDs are [A-Za-z0-9._-], member IDs arbitrary
// user strings): quotes, backslashes, and control bytes. Non-ASCII
// passes through verbatim — JSON strings are UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c < 0x20:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}
