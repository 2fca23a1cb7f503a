// Binary WAL record format (v2). Each record is one self-delimiting
// frame:
//
//	magic (1 byte, 0xB2)
//	type  (1 byte: 0x01 snapshot, 0x02 event, 0x03 barrier)
//	seq   (uvarint: event-log position of the record)
//	len   (uvarint: payload length in bytes)
//	payload
//
// Payload numerics are fixed-width little-endian (node IDs uint64,
// coordinates/ranges IEEE-754 float64 bits); counts, lengths, and small
// non-negative integers are uvarints. The frame is append-encoded into a
// caller-owned buffer — the WAL's steady-state event append performs
// zero heap allocations per record.
//
// Every WAL record is a v2 frame: a record whose first byte is not
// FrameMagic is corruption. A frame cut off by a crash — at any byte
// offset — is "not yet committed" and ignored by RecordScanner, while a
// byte sequence that cannot be a prefix of a valid frame is corruption
// and fails the read loudly. The distinction is sound because a
// truncated frame can never declare an out-of-range length (a cut
// mid-varint leaves the continuation bit set, which reads as torn, not
// as a huge value) and committed records always end on a frame boundary
// (an unrecognized leading byte therefore cannot be explained as a torn
// remnant).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/adhoc"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/strategy"
)

// FrameMagic is the first byte of every WAL record.
const FrameMagic byte = 0xB2

// Frame record types.
const (
	frameSnapshot byte = 0x01
	frameEvent    byte = 0x02
	frameBarrier  byte = 0x03
)

// Event kind bytes, shared by event payloads and snapshot metrics
// entries. They mirror strategy.EventKind's order but are pinned here
// independently: the on-disk format must not drift if the in-memory
// enum is ever reordered.
const (
	wireJoin  byte = 0x01
	wireLeave byte = 0x02
	wireMove  byte = 0x03
	wirePower byte = 0x04
)

// MaxFramePayload bounds a single record's payload (256 MiB). A frame
// declaring more is corruption, never a legitimate record: the bound
// exists so a flipped length byte cannot make a reader attempt a
// multi-gigabyte buffer.
const MaxFramePayload = 1 << 28

// Fixed event payload sizes: kind byte + uint64 id + float64 fields.
const (
	eventJoinLen  = 1 + 8 + 24 // id, x, y, range
	eventLeaveLen = 1 + 8      // id
	eventMoveLen  = 1 + 8 + 16 // id, x, y
	eventPowerLen = 1 + 8 + 8  // id, r
)

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendF64(dst []byte, f float64) []byte {
	return appendU64(dst, math.Float64bits(f))
}

// AppendEventFrame appends one encoded v2 event frame to dst and
// returns the extended buffer. It allocates only if dst lacks capacity,
// so a reused buffer makes steady-state appends allocation-free.
func AppendEventFrame(dst []byte, seq int, ev strategy.Event) ([]byte, error) {
	if seq < 0 {
		return dst, fmt.Errorf("trace: event frame with negative seq %d", seq)
	}
	var kind byte
	var plen uint64
	switch ev.Kind {
	case strategy.Join:
		kind, plen = wireJoin, eventJoinLen
	case strategy.Leave:
		kind, plen = wireLeave, eventLeaveLen
	case strategy.Move:
		kind, plen = wireMove, eventMoveLen
	case strategy.PowerChange:
		kind, plen = wirePower, eventPowerLen
	default:
		return dst, fmt.Errorf("trace: unknown event kind %v", ev.Kind)
	}
	dst = append(dst, FrameMagic, frameEvent)
	dst = binary.AppendUvarint(dst, uint64(seq))
	dst = binary.AppendUvarint(dst, plen)
	dst = append(dst, kind)
	dst = appendU64(dst, uint64(int64(ev.ID)))
	switch ev.Kind {
	case strategy.Join:
		dst = appendF64(dst, ev.Cfg.Pos.X)
		dst = appendF64(dst, ev.Cfg.Pos.Y)
		dst = appendF64(dst, ev.Cfg.Range)
	case strategy.Move:
		dst = appendF64(dst, ev.Pos.X)
		dst = appendF64(dst, ev.Pos.Y)
	case strategy.PowerChange:
		dst = appendF64(dst, ev.R)
	}
	return dst, nil
}

// AppendBarrierFrame appends one encoded v2 compaction-barrier frame
// (empty payload; the barrier's seq rides in the frame header).
func AppendBarrierFrame(dst []byte, seq int) ([]byte, error) {
	if seq < 0 {
		return dst, fmt.Errorf("trace: barrier with negative seq %d", seq)
	}
	dst = append(dst, FrameMagic, frameBarrier)
	dst = binary.AppendUvarint(dst, uint64(seq))
	dst = binary.AppendUvarint(dst, 0)
	return dst, nil
}

// AppendSnapshotFrame appends one encoded v2 snapshot frame. The
// snapshot's Seq rides in the frame header; the payload carries the
// schema version, topology, and per-strategy state. Snapshots are rare
// (creation and compaction), so the two-pass size computation favors
// clarity over squeezing out the last allocation.
func AppendSnapshotFrame(dst []byte, s Snapshot) ([]byte, error) {
	if err := s.validate(); err != nil {
		return dst, err
	}
	payload, err := appendSnapshotPayload(make([]byte, 0, snapshotPayloadCap(s)), s)
	if err != nil {
		return dst, err
	}
	if len(payload) > MaxFramePayload {
		return dst, fmt.Errorf("trace: snapshot payload of %d bytes exceeds frame limit", len(payload))
	}
	dst = append(dst, FrameMagic, frameSnapshot)
	dst = binary.AppendUvarint(dst, uint64(s.Seq))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...), nil
}

// snapshotPayloadCap over-estimates the payload size so the encode
// buffer is sized in one allocation.
func snapshotPayloadCap(s Snapshot) int {
	n := 32 + len(s.Nodes)*32
	for _, ss := range s.Strategies {
		n += 64 + len(ss.Name) + len(ss.Assign)*18 + len(ss.Metrics.RecodingsByKind)*11
	}
	return n
}

func appendSnapshotPayload(dst []byte, s Snapshot) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(s.Version))
	dst = binary.AppendUvarint(dst, uint64(len(s.Nodes)))
	for _, ns := range s.Nodes {
		dst = appendU64(dst, uint64(int64(ns.ID)))
		dst = appendF64(dst, ns.X)
		dst = appendF64(dst, ns.Y)
		dst = appendF64(dst, ns.Range)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Strategies)))
	for _, ss := range s.Strategies {
		dst = binary.AppendUvarint(dst, uint64(len(ss.Name)))
		dst = append(dst, ss.Name...)
		dst = binary.AppendUvarint(dst, uint64(len(ss.Assign)))
		for _, e := range ss.Assign {
			dst = appendU64(dst, uint64(int64(e.ID)))
			dst = binary.AppendUvarint(dst, uint64(e.Color))
		}
		m := ss.Metrics
		if m.Events < 0 || m.TotalRecodings < 0 || m.MaxColor < 0 || m.PeakMaxColor < 0 {
			return dst, fmt.Errorf("trace: %s snapshot metrics with negative counter", ss.Name)
		}
		dst = binary.AppendUvarint(dst, uint64(m.Events))
		dst = binary.AppendUvarint(dst, uint64(m.TotalRecodings))
		dst = binary.AppendUvarint(dst, uint64(m.MaxColor))
		dst = binary.AppendUvarint(dst, uint64(m.PeakMaxColor))
		// Recodings-by-kind entries in fixed kind-byte order so identical
		// snapshots encode to identical bytes regardless of map iteration.
		dst = binary.AppendUvarint(dst, uint64(len(m.RecodingsByKind)))
		written := 0
		for _, ks := range [...]string{"join", "leave", "move", "power"} {
			n, ok := m.RecodingsByKind[ks]
			if !ok {
				continue
			}
			if n < 0 {
				return dst, fmt.Errorf("trace: %s snapshot with negative %s recodings", ss.Name, ks)
			}
			kb, err := wireEventKind(ks)
			if err != nil {
				return dst, err
			}
			dst = append(dst, kb)
			dst = binary.AppendUvarint(dst, uint64(n))
			written++
		}
		if written != len(m.RecodingsByKind) {
			return dst, fmt.Errorf("trace: %s snapshot metrics with unknown event kind", ss.Name)
		}
	}
	return dst, nil
}

func wireEventKind(ks string) (byte, error) {
	switch ks {
	case "join":
		return wireJoin, nil
	case "leave":
		return wireLeave, nil
	case "move":
		return wireMove, nil
	case "power":
		return wirePower, nil
	default:
		return 0, fmt.Errorf("trace: unknown event kind %q", ks)
	}
}

func eventKindName(kb byte) (string, error) {
	switch kb {
	case wireJoin:
		return "join", nil
	case wireLeave:
		return "leave", nil
	case wireMove:
		return "move", nil
	case wirePower:
		return "power", nil
	default:
		return "", fmt.Errorf("trace: unknown event kind byte 0x%02x", kb)
	}
}

// payloadReader walks a frame payload with bounds checks; every read
// error is corruption (the frame declared a length its contents do not
// honor).
type payloadReader struct {
	b   []byte
	off int
}

func (p *payloadReader) u8() (byte, error) {
	if p.off >= len(p.b) {
		return 0, errShortPayload
	}
	v := p.b[p.off]
	p.off++
	return v, nil
}

func (p *payloadReader) u64() (uint64, error) {
	if p.off+8 > len(p.b) {
		return 0, errShortPayload
	}
	v := binary.LittleEndian.Uint64(p.b[p.off:])
	p.off += 8
	return v, nil
}

func (p *payloadReader) f64() (float64, error) {
	v, err := p.u64()
	return math.Float64frombits(v), err
}

func (p *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		return 0, errShortPayload
	}
	p.off += n
	return v, nil
}

// count reads a uvarint collection count and rejects values that cannot
// fit in the remaining payload at least one byte per element — a bound
// that stops a corrupt count from driving a huge allocation.
func (p *payloadReader) count() (int, error) {
	v, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(p.b)-p.off) {
		return 0, fmt.Errorf("trace: collection count %d exceeds remaining payload", v)
	}
	return int(v), nil
}

func (p *payloadReader) str() (string, error) {
	n, err := p.count()
	if err != nil {
		return "", err
	}
	s := string(p.b[p.off : p.off+n])
	p.off += n
	return s, nil
}

func (p *payloadReader) done() error {
	if p.off != len(p.b) {
		return fmt.Errorf("trace: %d trailing payload bytes", len(p.b)-p.off)
	}
	return nil
}

var errShortPayload = errors.New("trace: frame payload shorter than its contents require")

func decodeEventPayload(p []byte) (strategy.Event, error) {
	r := payloadReader{b: p}
	kb, err := r.u8()
	if err != nil {
		return strategy.Event{}, err
	}
	idU, err := r.u64()
	if err != nil {
		return strategy.Event{}, err
	}
	id := graph.NodeID(int64(idU))
	var ev strategy.Event
	switch kb {
	case wireJoin:
		x, _ := r.f64()
		y, _ := r.f64()
		rng, err := r.f64()
		if err != nil {
			return strategy.Event{}, err
		}
		if !(rng >= 0) { // rejects negatives and NaN
			return strategy.Event{}, fmt.Errorf("trace: join of %d with invalid range %g", id, rng)
		}
		ev = strategy.JoinEvent(id, adhoc.Config{Pos: geom.Point{X: x, Y: y}, Range: rng})
	case wireLeave:
		ev = strategy.LeaveEvent(id)
	case wireMove:
		x, _ := r.f64()
		y, err := r.f64()
		if err != nil {
			return strategy.Event{}, err
		}
		ev = strategy.MoveEvent(id, geom.Point{X: x, Y: y})
	case wirePower:
		rng, err := r.f64()
		if err != nil {
			return strategy.Event{}, err
		}
		if !(rng >= 0) {
			return strategy.Event{}, fmt.Errorf("trace: power of %d with invalid range %g", id, rng)
		}
		ev = strategy.PowerEvent(id, rng)
	default:
		return strategy.Event{}, fmt.Errorf("trace: unknown event kind byte 0x%02x", kb)
	}
	if err := r.done(); err != nil {
		return strategy.Event{}, err
	}
	return ev, nil
}

func decodeSnapshotPayload(p []byte) (Snapshot, error) {
	r := payloadReader{b: p}
	var s Snapshot
	ver, err := r.uvarint()
	if err != nil {
		return s, err
	}
	if ver > math.MaxInt32 {
		return s, fmt.Errorf("trace: unsupported snapshot version %d", ver)
	}
	s.Version = int(ver)
	nNodes, err := r.count()
	if err != nil {
		return s, err
	}
	if nNodes > 0 {
		s.Nodes = make([]NodeState, 0, nNodes)
	}
	for i := 0; i < nNodes; i++ {
		idU, err := r.u64()
		if err != nil {
			return s, err
		}
		x, _ := r.f64()
		y, _ := r.f64()
		rng, err := r.f64()
		if err != nil {
			return s, err
		}
		s.Nodes = append(s.Nodes, NodeState{ID: int(int64(idU)), X: x, Y: y, Range: rng})
	}
	nStrats, err := r.count()
	if err != nil {
		return s, err
	}
	if nStrats > 0 {
		s.Strategies = make([]StrategyState, 0, nStrats)
	}
	for i := 0; i < nStrats; i++ {
		var ss StrategyState
		if ss.Name, err = r.str(); err != nil {
			return s, err
		}
		nAssign, err := r.count()
		if err != nil {
			return s, err
		}
		if nAssign > 0 {
			ss.Assign = make([]ColorEntry, 0, nAssign)
		}
		for j := 0; j < nAssign; j++ {
			idU, err := r.u64()
			if err != nil {
				return s, err
			}
			col, err := r.uvarint()
			if err != nil {
				return s, err
			}
			if col > math.MaxInt32 {
				return s, fmt.Errorf("trace: %s assigns out-of-range color %d", ss.Name, col)
			}
			ss.Assign = append(ss.Assign, ColorEntry{ID: int(int64(idU)), Color: int(col)})
		}
		counters := [4]uint64{}
		for k := range counters {
			if counters[k], err = r.uvarint(); err != nil {
				return s, err
			}
			if counters[k] > math.MaxInt32 {
				return s, fmt.Errorf("trace: %s snapshot metrics counter out of range", ss.Name)
			}
		}
		ss.Metrics = MetricsState{
			Events:         int(counters[0]),
			TotalRecodings: int(counters[1]),
			MaxColor:       int(counters[2]),
			PeakMaxColor:   int(counters[3]),
		}
		nKinds, err := r.count()
		if err != nil {
			return s, err
		}
		if nKinds > 0 {
			ss.Metrics.RecodingsByKind = make(map[string]int, nKinds)
		}
		for j := 0; j < nKinds; j++ {
			kb, err := r.u8()
			if err != nil {
				return s, err
			}
			ks, err := eventKindName(kb)
			if err != nil {
				return s, err
			}
			n, err := r.uvarint()
			if err != nil {
				return s, err
			}
			if n > math.MaxInt32 {
				return s, fmt.Errorf("trace: %s snapshot with out-of-range %s recodings", ss.Name, ks)
			}
			if _, dup := ss.Metrics.RecodingsByKind[ks]; dup {
				return s, fmt.Errorf("trace: %s snapshot repeats %s recodings", ss.Name, ks)
			}
			ss.Metrics.RecodingsByKind[ks] = int(n)
		}
		s.Strategies = append(s.Strategies, ss)
	}
	if err := r.done(); err != nil {
		return s, err
	}
	return s, nil
}

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// RecordScanner decodes a WAL stream frame by frame. The payload
// buffer is reused across records; decoded Records do not alias it.
//
// Next returns io.EOF both at a clean end of stream and at a torn tail
// (a final record cut off mid-write): in either case Committed reports
// where the committed prefix ends, and bytes past it are not records.
// Malformed committed bytes are corruption and return a non-EOF error.
type RecordScanner struct {
	br        *bufio.Reader
	committed int64
	payload   []byte
	capture   bool
	idx       int
}

// NewRecordScanner wraps r for record-at-a-time decoding.
func NewRecordScanner(r io.Reader) *RecordScanner {
	return &RecordScanner{br: bufio.NewReaderSize(r, 64<<10)}
}

// CaptureFrames makes Next attach each record's frame bytes as
// Record.Frame — the replication feed's encode-once source.
func (s *RecordScanner) CaptureFrames() { s.capture = true }

// Committed returns the byte offset where the committed record prefix
// ends: every complete record decoded so far, excluding any torn tail.
func (s *RecordScanner) Committed() int64 { return s.committed }

func isTornEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// Next decodes the next committed record, or io.EOF at end of stream /
// torn tail.
func (s *RecordScanner) Next() (Record, error) {
	b0, err := s.br.ReadByte()
	if err != nil {
		if isTornEOF(err) {
			return Record{}, io.EOF
		}
		return Record{}, err
	}
	i := s.idx
	if b0 != FrameMagic {
		return Record{}, fmt.Errorf("trace: record %d: unknown record format byte 0x%02x", i, b0)
	}
	typ, err := s.br.ReadByte()
	if err != nil {
		if isTornEOF(err) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: record %d: %w", i, err)
	}
	seqU, err := binary.ReadUvarint(s.br)
	if err != nil {
		if isTornEOF(err) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: record %d: %w", i, err)
	}
	plenU, err := binary.ReadUvarint(s.br)
	if err != nil {
		if isTornEOF(err) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: record %d: %w", i, err)
	}
	if seqU > math.MaxInt64 {
		return Record{}, fmt.Errorf("trace: record %d: seq %d out of range", i, seqU)
	}
	if plenU > MaxFramePayload {
		return Record{}, fmt.Errorf("trace: record %d: payload length %d exceeds frame limit", i, plenU)
	}
	plen := int(plenU)
	p, err := s.readPayload(plen)
	if err != nil {
		if isTornEOF(err) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: record %d: %w", i, err)
	}
	seq := int(seqU)
	rec := Record{Seq: seq}
	switch typ {
	case frameEvent:
		ev, err := decodeEventPayload(p)
		if err != nil {
			return Record{}, fmt.Errorf("trace: record %d: %w", i, err)
		}
		rec.Ev = &ev
	case frameSnapshot:
		snap, err := decodeSnapshotPayload(p)
		if err != nil {
			return Record{}, fmt.Errorf("trace: record %d: %w", i, err)
		}
		snap.Seq = seq
		if err := snap.validate(); err != nil {
			return Record{}, fmt.Errorf("trace: record %d: %w", i, err)
		}
		rec.Snap = &snap
	case frameBarrier:
		if plen != 0 {
			return Record{}, fmt.Errorf("trace: record %d: barrier with %d-byte payload", i, plen)
		}
		rec.Barrier = &Barrier{Seq: seq}
	default:
		return Record{}, fmt.Errorf("trace: record %d: unknown frame type 0x%02x", i, typ)
	}
	frameLen := 2 + uvarintLen(seqU) + uvarintLen(plenU) + plen
	if s.capture {
		f := make([]byte, 0, frameLen)
		f = append(f, FrameMagic, typ)
		f = binary.AppendUvarint(f, seqU)
		f = binary.AppendUvarint(f, plenU)
		rec.Frame = append(f, p...)
	}
	s.committed += int64(frameLen)
	s.idx++
	return rec, nil
}

// readPayload reads an n-byte payload into the reused buffer. The
// buffer grows only as bytes arrive, at most doubling what has been
// read so far, so a declared length the stream does not deliver (a torn
// tail, or a lying length byte) costs what was read, not what was
// declared.
func (s *RecordScanner) readPayload(n int) ([]byte, error) {
	p := s.payload[:0]
	for len(p) < n {
		if len(p) == cap(p) {
			p = slices.Grow(p, min(n-len(p), max(len(p), 4096)))
		}
		k, err := io.ReadFull(s.br, p[len(p):min(cap(p), n)])
		p = p[:len(p)+k]
		if err != nil {
			s.payload = p[:0]
			return nil, err
		}
	}
	s.payload = p
	return p, nil
}
