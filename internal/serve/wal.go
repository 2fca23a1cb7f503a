package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"time"

	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// walObs holds one WAL's metric children, resolved once at session
// build (Metrics.forWAL). The zero value is the uninstrumented no-op
// state — every field nil, so the hot-path updates cost one nil check.
type walObs struct {
	// follower marks a replica's WAL: appends and fsyncs then record
	// the follower-* trace stages (the member-resolved halves of a
	// merged cross-process timeline).
	follower bool

	bytes       *obs.Counter   // serve_wal_appended_bytes_total
	records     *obs.Counter   // serve_wal_records_total
	fsyncs      *obs.Counter   // serve_wal_fsyncs_total
	fsyncLat    *obs.Histogram // serve_fsync_seconds
	compactions *obs.Counter   // serve_wal_compactions_total
	tracer      *obs.Tracer
}

// wal is one session's durable write-ahead log: a directory of segment
// files of binary frames (the internal/trace record encoding), numbered
// in append order. The first record of the log is a
// versioned snapshot and every following record one event, so the
// committed state of a session is always "snapshot + event tail".
//
// Segmentation: when SegmentBytes is set, the active segment is sealed
// (flushed, fsynced, closed) once it reaches that size and appends
// continue in the next-numbered file. Sealed segments are immutable,
// which makes them natural batch units for WAL shipping (package
// cluster) — a reader can tail the directory with plain offset reads
// and never races the writer beyond the torn tail of the active
// segment. Compaction writes a fresh snapshot into the next-numbered
// segment, publishes it by atomic rename, and only then deletes the
// sealed segments it supersedes; a crash anywhere in between leaves a
// directory whose newest snapshot still wins on open.
//
// Durability discipline: records are buffered and flushed whenever the
// writer drains its mailbox (group commit) and fsynced on seal,
// compaction, and close; SyncEvery forces a flush+fsync every N appends
// (counted across segment boundaries) for callers that want per-event
// durability. A torn final frame in the active segment (crash
// mid-append) is detected and truncated on open — a record is committed
// iff its frame is complete. A torn frame in a sealed segment is
// corruption and fails the open.
type wal struct {
	dir          string
	firstSeg     int // oldest live segment number
	segIdx       int // active segment number
	f            *os.File
	bw           *bufio.Writer
	size         int64 // bytes written to the active segment
	segmentBytes int64 // rotate when size reaches this (0 disables)
	tail         int   // events appended since the last snapshot record
	syncEvery    int
	sinceSync    int
	seq          int    // event-log position of the last appended record
	encBuf       []byte // reusable frame-encode buffer: appends allocate nothing at steady state
	obs          walObs
}

// segName formats a segment file name; the fixed width keeps
// lexicographic and numeric order identical.
func segName(i int) string { return fmt.Sprintf("%09d.seg", i) }

// parseSegName returns the segment number encoded in a file name, or
// false for files that are not segments.
func parseSegName(name string) (int, bool) {
	if !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(name, ".seg"))
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment numbers present under dir,
// ascending. It is a pure read — safe for tailers running beside a
// live writer (removing anything here could unlink a compaction's
// in-progress temp file).
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range ents {
		if n, ok := parseSegName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// cleanTemps removes leftover ".tmp" files from a crashed compaction.
// Only the exclusive open path (openWAL) may call it.
func cleanTemps(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// startsWithSnapshot reports whether a segment file's first committed
// record is a snapshot (createWAL's first segment and every compaction
// segment are; append-continuation segments are not). The whole first
// record must decode — a torn or malformed snapshot frame must not
// nominate its segment as a recovery root, since choosing it would
// delete valid predecessor segments.
func startsWithSnapshot(p string) bool {
	f, err := os.Open(p)
	if err != nil {
		return false
	}
	defer f.Close()
	rec, err := trace.NewRecordScanner(f).Next()
	return err == nil && rec.Snap != nil
}

// writeFrame appends one encoded record to the active segment, tracking
// its size.
func (w *wal) writeFrame(b []byte) error {
	n, err := w.bw.Write(b)
	w.size += int64(n)
	w.obs.bytes.Add(int64(n))
	return err
}

// createWAL starts a fresh log at dir with the given initial snapshot,
// removing any previous log.
func createWAL(dir string, snap trace.Snapshot) (*wal, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &wal{dir: dir, firstSeg: 1, segIdx: 1, f: f, bw: bufio.NewWriter(f), seq: snap.Seq}
	buf, err := trace.AppendSnapshotFrame(w.encBuf[:0], snap)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.encBuf = buf
	if err := w.writeFrame(buf); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.sync(); err != nil {
		f.Close()
		return nil, err
	}
	syncDir(dir)
	return w, nil
}

// openWAL reads an existing log back: the newest snapshot, the
// committed event tail after it, and a wal handle positioned for
// appending to the last segment. Torn trailing bytes in the active
// (last) segment are truncated away; corrupt committed records or torn
// sealed segments fail the open. Sealed segments wholly superseded by a
// later snapshot segment (an interrupted compaction) are deleted.
func openWAL(dir string) (trace.Snapshot, []strategy.Event, *wal, error) {
	fail := func(err error) (trace.Snapshot, []strategy.Event, *wal, error) {
		return trace.Snapshot{}, nil, nil, err
	}
	fi, err := os.Stat(dir)
	if os.IsNotExist(err) {
		// A snapshot install that crashed between its two renames leaves
		// the previous log parked at dir+".old"; restore it — the old
		// copy is stale but it is the only one.
		if _, serr := os.Stat(dir + installOldSuffix); serr == nil {
			if rerr := os.Rename(dir+installOldSuffix, dir); rerr != nil {
				return fail(rerr)
			}
			fi, err = os.Stat(dir)
		}
	}
	if err != nil {
		return fail(err)
	}
	if !fi.IsDir() {
		return fail(fmt.Errorf("serve: wal %s is not a segment directory", dir))
	}
	// Leftovers of a crashed install: the half-written new log, and —
	// since dir exists, meaning the install's final rename completed —
	// the parked, superseded previous log.
	os.RemoveAll(dir + installNewSuffix)
	os.RemoveAll(dir + installOldSuffix)
	cleanTemps(dir)
	segs, err := listSegments(dir)
	if err != nil {
		return fail(err)
	}
	if len(segs) == 0 {
		return fail(fmt.Errorf("serve: wal %s has no segments", dir))
	}

	// Newest-snapshot-wins: locate the latest segment that begins with
	// a snapshot record. Everything before it is superseded — including
	// a torn old active segment abandoned mid-buffer by a compaction
	// that crashed between publishing its snapshot segment and deleting
	// the predecessors — so those files are retired unread.
	snapSeg := -1
	for i := len(segs) - 1; i >= 0; i-- {
		if startsWithSnapshot(filepath.Join(dir, segName(segs[i]))) {
			snapSeg = segs[i]
			break
		}
	}
	if snapSeg < 0 {
		return fail(fmt.Errorf("serve: wal %s holds no snapshot", dir))
	}
	for _, idx := range segs {
		if idx < snapSeg {
			os.Remove(filepath.Join(dir, segName(idx)))
		}
	}

	var (
		snap     *trace.Snapshot
		tail     []strategy.Event
		lastSize int64 // committed size of the final segment
	)
	for i, idx := range segs {
		if idx < snapSeg {
			continue
		}
		p := filepath.Join(dir, segName(idx))
		f, err := os.Open(p)
		if err != nil {
			return fail(err)
		}
		recs, committed, err := trace.ReadRecords(f)
		st, serr := f.Stat()
		f.Close()
		if err != nil {
			return fail(fmt.Errorf("serve: wal %s: %w", p, err))
		}
		if serr != nil {
			return fail(serr)
		}
		final := i == len(segs)-1
		if !final && committed != st.Size() {
			return fail(fmt.Errorf("serve: wal %s: torn record in sealed segment", p))
		}
		if final {
			lastSize = committed
		}
		for j, r := range recs {
			if r.Snap != nil {
				// A later snapshot within the live range supersedes
				// everything before it.
				snap = r.Snap
				tail = tail[:0]
				continue
			}
			if r.Barrier != nil {
				// Compaction barriers are coordination markers, not
				// state: replay skips them.
				continue
			}
			if snap == nil {
				return fail(fmt.Errorf("serve: wal %s: record %d precedes any snapshot", p, j))
			}
			tail = append(tail, *r.Ev)
		}
	}
	if snap == nil {
		return fail(fmt.Errorf("serve: wal %s holds no snapshot", dir))
	}

	last := segs[len(segs)-1]
	lastPath := filepath.Join(dir, segName(last))
	f, err := os.OpenFile(lastPath, os.O_RDWR, 0o644)
	if err != nil {
		return fail(err)
	}
	if err := f.Truncate(lastSize); err != nil {
		f.Close()
		return fail(err)
	}
	if _, err := f.Seek(lastSize, io.SeekStart); err != nil {
		f.Close()
		return fail(err)
	}
	w := &wal{dir: dir, firstSeg: snapSeg, segIdx: last, f: f, bw: bufio.NewWriter(f), size: lastSize, tail: len(tail), seq: snap.Seq + len(tail)}
	return *snap, tail, w, nil
}

// append logs one event record, sealing and rotating the active segment
// first when it has reached SegmentBytes.
func (w *wal) append(ev strategy.Event) error {
	if w.segmentBytes > 0 && w.size >= w.segmentBytes {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	buf, err := trace.AppendEventFrame(w.encBuf[:0], w.seq+1, ev)
	if err != nil {
		return err
	}
	w.encBuf = buf
	if err := w.writeFrame(buf); err != nil {
		return err
	}
	w.seq++
	w.tail++
	w.sinceSync++
	w.obs.records.Inc()
	if w.obs.follower {
		w.obs.tracer.Record(int64(w.seq), obs.StageFollowerWALAppend)
	}
	if w.syncEvery > 0 && w.sinceSync >= w.syncEvery {
		return w.sync()
	}
	return nil
}

// appendBarrier logs one compaction-barrier record. Barriers are
// markers, not events: they do not count toward the snapshot tail or
// the SyncEvery cadence (the caller flushes explicitly).
func (w *wal) appendBarrier(seq int) error {
	if w.segmentBytes > 0 && w.size >= w.segmentBytes {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	buf, err := trace.AppendBarrierFrame(w.encBuf[:0], seq)
	if err != nil {
		return err
	}
	w.encBuf = buf
	return w.writeFrame(buf)
}

// rotate seals the active segment (flush + fsync + close) and starts
// the next one. Sealing makes every buffered record durable, so the
// SyncEvery counter restarts.
func (w *wal) rotate() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.obs.fsyncs.Inc()
	if err := w.f.Close(); err != nil {
		return err
	}
	w.segIdx++
	f, err := os.OpenFile(filepath.Join(w.dir, segName(w.segIdx)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	syncDir(w.dir)
	w.f = f
	w.bw = bufio.NewWriter(f)
	w.size = 0
	w.sinceSync = 0
	return nil
}

// flush pushes buffered records to the OS (group commit at mailbox
// drains).
func (w *wal) flush() error { return w.bw.Flush() }

// sync flushes and fsyncs the active segment.
func (w *wal) sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	w.sinceSync = 0
	var t0 time.Time
	if w.obs.fsyncLat != nil {
		t0 = time.Now()
	}
	err := w.f.Sync()
	if err == nil {
		w.obs.fsyncs.Inc()
		if w.obs.fsyncLat != nil {
			w.obs.fsyncLat.ObserveExemplar(time.Since(t0).Seconds(), int64(w.seq))
		}
		st := obs.StageFsync
		if w.obs.follower {
			st = obs.StageFollowerFsync
		}
		w.obs.tracer.Record(int64(w.seq), st)
	}
	return err
}

// compact replaces the log's prefix with a fresh snapshot: the snapshot
// is written to the next-numbered segment beside the live ones, fsynced,
// published by atomic rename, and only then are the superseded sealed
// segments (every lower-numbered file) deleted. A crash at any point
// leaves a directory whose newest snapshot reconstructs the same state.
func (w *wal) compact(snap trace.Snapshot) error {
	newIdx := w.segIdx + 1
	final := filepath.Join(w.dir, segName(newIdx))
	tmp := final + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	frame, err := trace.AppendSnapshotFrame(nil, snap)
	if err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	size := int64(len(frame))
	if _, err := nf.Write(frame); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	// Durably record the rename itself, then retire the superseded
	// segments (only the live range — long-gone numbers stay gone).
	syncDir(w.dir)
	w.f.Close()
	for i := w.firstSeg; i <= w.segIdx; i++ {
		os.Remove(filepath.Join(w.dir, segName(i)))
	}
	w.firstSeg = newIdx
	w.segIdx = newIdx
	w.f = nf
	w.bw = bufio.NewWriter(nf)
	w.size = size
	w.tail = 0
	w.sinceSync = 0
	w.obs.compactions.Inc()
	w.obs.bytes.Add(size)
	return nil
}

// close flushes, fsyncs, and releases the active segment.
func (w *wal) close() error {
	if err := w.sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// abort releases the file WITHOUT flushing the buffer — the
// simulated-crash path: whatever the last group commit pushed to the OS
// survives, everything after it is lost, exactly as if the process died.
func (w *wal) abort() error { return w.f.Close() }

// syncDir fsyncs a directory so renames and file creations within it
// are durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// WALPos addresses a point in a segmented WAL: a segment number and a
// byte offset within it. The zero value means "start of the log".
type WALPos struct {
	Seg int
	Off int64
}

// ErrWALGap reports that a TailWAL position refers to a segment that no
// longer exists (compaction retired it); the tailer's history is stale
// and it must restart from the zero position.
var ErrWALGap = errors.New("serve: wal position precedes the oldest segment")

// TailWAL reads every committed record at or after pos from a session's
// WAL directory, returning them with the position where the committed
// prefix ends. It is safe to run concurrently with the session writer:
// sealed segments are immutable, and the active segment is read up to
// its last complete record — a torn or still-buffered tail is simply
// "not yet committed" and is picked up by a later call. This is the
// read path WAL shipping (package cluster) tails a primary's log with.
func TailWAL(dir string, pos WALPos) ([]trace.Record, WALPos, error) {
	recs, pos, _, err := TailWALLimit(dir, pos, 0)
	return recs, pos, err
}

// TailWALLimit is TailWAL with a soft record cap: once at least limit
// records have been read, no further segment is opened and more=true
// reports the remainder is still pending (limit 0 disables the cap).
// The cap is per-segment granular — one call may return up to a
// segment's worth of records beyond limit — which is what bounds a
// replication feed's in-memory backlog without re-reading files.
func TailWALLimit(dir string, pos WALPos, limit int) (recs []trace.Record, end WALPos, more bool, err error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, pos, false, err
	}
	if len(segs) == 0 {
		return nil, pos, false, fmt.Errorf("serve: wal %s has no segments", dir)
	}
	if pos.Seg == 0 {
		pos = WALPos{Seg: segs[0]}
	}
	if pos.Seg < segs[0] {
		return nil, pos, false, ErrWALGap
	}
	for _, idx := range segs {
		if idx < pos.Seg {
			continue
		}
		if limit > 0 && len(recs) >= limit {
			return recs, pos, true, nil
		}
		off := int64(0)
		if idx == pos.Seg {
			off = pos.Off
		}
		f, err := os.Open(filepath.Join(dir, segName(idx)))
		if err != nil {
			return nil, pos, false, err
		}
		got, end, err := trace.ReadRecordsAt(f, off)
		f.Close()
		if err != nil {
			return nil, pos, false, err
		}
		recs = append(recs, got...)
		pos = WALPos{Seg: idx, Off: end}
	}
	return recs, pos, false, nil
}

// TailFile is one committed byte range of a WAL segment file.
type TailFile struct {
	Path      string
	Committed int64
}

// TailPlan describes a WAL's newest snapshot and everything committed
// after it: the byte ranges to stream (snapshot record first, then the
// event tail, barriers included) and the sequence number the stream
// ends at. Concatenated, the ranges form one valid single-segment WAL —
// the transfer unit of snapshot catch-up (package cluster): a follower
// installs the stream as a fresh log and recovers from it instead of
// replaying the primary's full history.
type TailPlan struct {
	Seq   int
	Files []TailFile
}

// PlanSnapshotTail computes the TailPlan of a session's WAL. Safe
// beside a live writer for the same reason TailWAL is; the caller
// streams the planned ranges and the receiver verifies the installed
// sequence number against Seq (a file retired by a concurrent
// compaction surfaces as a copy error or a seq mismatch, never as a
// silently short log).
func PlanSnapshotTail(dir string) (TailPlan, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return TailPlan{}, err
	}
	if len(segs) == 0 {
		return TailPlan{}, fmt.Errorf("serve: wal %s has no segments", dir)
	}
	snapSeg := -1
	for i := len(segs) - 1; i >= 0; i-- {
		if startsWithSnapshot(filepath.Join(dir, segName(segs[i]))) {
			snapSeg = segs[i]
			break
		}
	}
	if snapSeg < 0 {
		return TailPlan{}, fmt.Errorf("serve: wal %s holds no snapshot", dir)
	}
	plan := TailPlan{}
	seq := 0
	for _, idx := range segs {
		if idx < snapSeg {
			continue
		}
		p := filepath.Join(dir, segName(idx))
		f, err := os.Open(p)
		if err != nil {
			return TailPlan{}, err
		}
		recs, committed, err := trace.ReadRecords(f)
		f.Close()
		if err != nil {
			return TailPlan{}, fmt.Errorf("serve: wal %s: %w", p, err)
		}
		for _, r := range recs {
			switch {
			case r.Snap != nil:
				seq = r.Snap.Seq
			case r.Ev != nil:
				seq++
			}
		}
		plan.Files = append(plan.Files, TailFile{Path: p, Committed: committed})
	}
	plan.Seq = seq
	return plan, nil
}

// Suffixes of InstallWAL's transient sibling directories.
const (
	installNewSuffix = ".install"
	installOldSuffix = ".old"
)

// InstallWAL replaces a session's WAL directory with a log streamed
// from r (a PlanSnapshotTail transfer), installed as one segment file.
// The install is crash-safe: the stream lands in a temp directory and
// is fsynced before any rename; the previous log is parked aside and
// deleted only after the new one is in place, and openWAL restores the
// parked copy if a crash strands it. The caller must hold the session
// exclusively (no live writer or replica over dir).
func InstallWAL(dir string, r io.Reader) error {
	tmp := dir + installNewSuffix
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(tmp, segName(1)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		os.RemoveAll(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.RemoveAll(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.RemoveAll(tmp)
		return err
	}
	syncDir(tmp)
	old := dir + installOldSuffix
	if err := os.RemoveAll(old); err != nil {
		return err
	}
	if _, err := os.Stat(dir); err == nil {
		if err := os.Rename(dir, old); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, dir); err != nil {
		return err
	}
	syncDir(filepath.Dir(dir))
	os.RemoveAll(old)
	return nil
}
