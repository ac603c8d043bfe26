package ckpt

import (
	"fmt"
	"time"

	"arams/internal/audit"
	"arams/internal/pipeline"
	"arams/internal/rng"
	"arams/internal/sketch"
)

// Marshal encodes a state snapshot as one checkpoint frame. Accepted
// types (pointers or values where noted):
//
//	sketch.FDState / *sketch.FDState                     → KindFD
//	sketch.RankAdaptiveState / *sketch.RankAdaptiveState → KindRankAdaptive
//	sketch.PriorityState / *sketch.PriorityState         → KindPriority
//	sketch.ARAMSState / *sketch.ARAMSState               → KindARAMS
//	*pipeline.MonitorState                               → KindMonitor
func Marshal(state any) ([]byte, error) {
	var (
		kind Kind
		e    *enc
		err  error
	)
	switch s := state.(type) {
	case sketch.FDState:
		kind, e = KindFD, newEnc(fdSize(&s))
		encodeFD(e, &s)
	case *sketch.FDState:
		kind, e = KindFD, newEnc(fdSize(s))
		encodeFD(e, s)
	case sketch.RankAdaptiveState:
		kind, e = KindRankAdaptive, newEnc(rankAdaptiveSize(&s))
		encodeRankAdaptive(e, &s)
	case *sketch.RankAdaptiveState:
		kind, e = KindRankAdaptive, newEnc(rankAdaptiveSize(s))
		encodeRankAdaptive(e, s)
	case sketch.PriorityState:
		kind, e = KindPriority, newEnc(0)
		encodePriority(e, &s)
	case *sketch.PriorityState:
		kind, e = KindPriority, newEnc(0)
		encodePriority(e, s)
	case sketch.ARAMSState:
		kind, e = KindARAMS, newEnc(aramsSize(&s))
		err = encodeARAMS(e, &s)
	case *sketch.ARAMSState:
		kind, e = KindARAMS, newEnc(aramsSize(s))
		err = encodeARAMS(e, s)
	case *pipeline.MonitorState:
		kind, e = KindMonitor, newEnc(monitorSize(s))
		err = encodeMonitor(e, s)
	default:
		return nil, fmt.Errorf("ckpt: cannot marshal %T", state)
	}
	if err != nil {
		return nil, err
	}
	return e.seal(kind), nil
}

// Payload size estimates for presizing the encoder. They count the
// float payloads that dominate a frame plus a fixed allowance for the
// scalar fields; an underestimate only costs one append growth.
const scalarSlack = 512

func fdSize(s *sketch.FDState) int { return scalarSlack + 8*len(s.Buffer) }

func rankAdaptiveSize(s *sketch.RankAdaptiveState) int {
	n := fdSize(&s.FD)
	for _, row := range s.Recent {
		n += 8 + 8*len(row)
	}
	return n
}

func aramsSize(s *sketch.ARAMSState) int {
	switch {
	case s.RankAdaptive != nil:
		return rankAdaptiveSize(s.RankAdaptive)
	case s.FD != nil:
		return fdSize(s.FD)
	}
	return scalarSlack
}

// monitorSize is dominated by the window: one tag, length prefix and
// feature vector per frame. The audit journal is left to append.
func monitorSize(s *pipeline.MonitorState) int {
	n := scalarSlack
	for _, f := range s.Frames {
		n += 16 + 8*len(f.Vec)
	}
	for _, ss := range s.Shards {
		if ss != nil {
			n += 1 + aramsSize(ss)
		}
	}
	return n
}

// Unmarshal decodes one checkpoint frame. It returns one of
// *sketch.FDState, *sketch.RankAdaptiveState, *sketch.PriorityState,
// *sketch.ARAMSState, *pipeline.MonitorState.
func Unmarshal(b []byte) (any, error) {
	h, payload, err := unframe(b)
	if err != nil {
		return nil, err
	}
	kind := h.Kind
	d := &dec{b: payload, ver: h.Version}
	var state any
	switch kind {
	case KindFD:
		state = decodeFD(d)
	case KindRankAdaptive:
		state = decodeRankAdaptive(d)
	case KindPriority:
		state = decodePriority(d)
	case KindARAMS:
		state = decodeARAMS(d)
	case KindMonitor:
		state = decodeMonitor(d)
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadKind, uint32(kind))
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return state, nil
}

// --- FrequentDirections ---

func encodeFD(e *enc, s *sketch.FDState) {
	e.i64(s.Ell)
	e.i64(s.D)
	e.i64(int(s.Backend))
	e.i64(s.NextZero)
	e.i64(s.Rotations)
	e.i64(s.Seen)
	e.f64(s.TotalDelta)
	e.f64(s.FrobMass) // frame version 2+
	e.floats(s.Buffer)
}

func decodeFD(d *dec) *sketch.FDState {
	s := &sketch.FDState{
		Ell:      d.i64(),
		D:        d.i64(),
		Backend:  sketch.SVDBackend(d.i64()),
		NextZero: d.i64(),
	}
	s.Rotations = d.i64()
	s.Seen = d.i64()
	s.TotalDelta = d.f64()
	if d.ver >= 2 {
		s.FrobMass = d.f64()
	}
	s.Buffer = d.floats()
	return s
}

// --- RNG ---

func encodeRNG(e *enc, s rng.State) {
	e.u64(s.Hi)
	e.u64(s.Lo)
	e.u64(s.IncHi)
	e.u64(s.IncLo)
	e.bool(s.HaveGauss)
	e.f64(s.Gauss)
}

func decodeRNG(d *dec) rng.State {
	return rng.State{
		Hi:        d.u64(),
		Lo:        d.u64(),
		IncHi:     d.u64(),
		IncLo:     d.u64(),
		HaveGauss: d.bool(),
		Gauss:     d.f64(),
	}
}

// --- RankAdaptiveFD ---

func encodeRankAdaptive(e *enc, s *sketch.RankAdaptiveState) {
	encodeFD(e, &s.FD)
	e.i64(s.Nu)
	e.f64(s.Eps)
	e.i64(int(s.Estimator))
	encodeRNG(e, s.RNG)
	e.i64(len(s.Recent))
	for _, row := range s.Recent {
		e.floats(row)
	}
	e.bool(s.IncreaseEll)
	e.i64(s.RowsLeft)
	e.i64(s.Grows)
}

func decodeRankAdaptive(d *dec) *sketch.RankAdaptiveState {
	s := &sketch.RankAdaptiveState{FD: *decodeFD(d)}
	s.Nu = d.i64()
	s.Eps = d.f64()
	s.Estimator = sketch.EstimatorKind(d.i64())
	s.RNG = decodeRNG(d)
	// Each ring row costs at least a length prefix (8 bytes).
	n := d.count(8)
	if n > 0 {
		s.Recent = make([][]float64, n)
		for i := range s.Recent {
			s.Recent[i] = d.floats()
		}
	}
	s.IncreaseEll = d.bool()
	s.RowsLeft = d.i64()
	s.Grows = d.i64()
	return s
}

// --- PrioritySampler ---

func encodePriority(e *enc, s *sketch.PriorityState) {
	e.i64(s.M)
	e.i64(s.Seen)
	encodeRNG(e, s.RNG)
	e.i64(len(s.Entries))
	for _, ent := range s.Entries {
		e.f64(ent.Priority)
		e.f64(ent.Weight)
		e.i64(ent.Index)
		e.bool(ent.Row != nil)
		if ent.Row != nil {
			e.floats(ent.Row)
		}
	}
}

func decodePriority(d *dec) *sketch.PriorityState {
	s := &sketch.PriorityState{
		M:    d.i64(),
		Seen: d.i64(),
		RNG:  decodeRNG(d),
	}
	// Each entry costs at least priority+weight+index+hasRow (25 bytes).
	n := d.count(25)
	if n > 0 {
		s.Entries = make([]sketch.PriorityEntry, n)
		for i := range s.Entries {
			ent := &s.Entries[i]
			ent.Priority = d.f64()
			ent.Weight = d.f64()
			ent.Index = d.i64()
			if d.bool() {
				ent.Row = d.floats()
				if ent.Row == nil && d.err == nil {
					// A present-but-empty row re-encodes identically to a
					// nil row only if we keep it non-nil.
					ent.Row = []float64{}
				}
			}
		}
	}
	return s
}

// --- ARAMS ---

func encodeARAMS(e *enc, s *sketch.ARAMSState) error {
	e.i64(s.Cfg.Ell0)
	e.i64(s.Cfg.Nu)
	e.f64(s.Cfg.Eps)
	e.f64(s.Cfg.Beta)
	e.bool(s.Cfg.RankAdaptive)
	e.i64(int(s.Cfg.Estimator))
	e.u64(s.Cfg.Seed)
	e.i64(s.D)
	encodeRNG(e, s.RNG)
	switch {
	case s.RankAdaptive != nil && s.FD == nil:
		e.bool(true)
		encodeRankAdaptive(e, s.RankAdaptive)
	case s.FD != nil && s.RankAdaptive == nil:
		e.bool(false)
		encodeFD(e, s.FD)
	default:
		return fmt.Errorf("ckpt: ARAMS state must carry exactly one sketch variant")
	}
	return nil
}

func decodeARAMS(d *dec) *sketch.ARAMSState {
	s := &sketch.ARAMSState{}
	s.Cfg.Ell0 = d.i64()
	s.Cfg.Nu = d.i64()
	s.Cfg.Eps = d.f64()
	s.Cfg.Beta = d.f64()
	s.Cfg.RankAdaptive = d.bool()
	s.Cfg.Estimator = sketch.EstimatorKind(d.i64())
	s.Cfg.Seed = d.u64()
	s.D = d.i64()
	s.RNG = decodeRNG(d)
	if d.bool() {
		s.RankAdaptive = decodeRankAdaptive(d)
	} else {
		s.FD = decodeFD(d)
	}
	return s
}

// --- Monitor ---

func encodeMonitor(e *enc, s *pipeline.MonitorState) error {
	e.i64(s.Window)
	e.i64(s.Ingests)
	e.i64(len(s.Frames))
	for _, f := range s.Frames {
		e.i64(f.Tag)
		e.floats(f.Vec)
	}
	// Frame version 3+: the shard-state list replaces v1/v2's single
	// optional sketch. Slots are positional (slot i = engine shard i)
	// and may be nil for shards that have not received a frame, so each
	// entry carries a presence bool.
	e.i64(len(s.Shards))
	for _, ss := range s.Shards {
		e.bool(ss != nil)
		if ss != nil {
			if err := encodeARAMS(e, ss); err != nil {
				return err
			}
		}
	}
	// Frame version 2+: optional audit state (drift detectors + event
	// journal).
	e.bool(s.Audit != nil)
	if s.Audit != nil {
		encodeAuditState(e, s.Audit)
	}
	e.bool(s.Journal != nil)
	if s.Journal != nil {
		encodeJournal(e, s.Journal)
	}
	return nil
}

func decodeMonitor(d *dec) *pipeline.MonitorState {
	s := &pipeline.MonitorState{
		Window:  d.i64(),
		Ingests: d.i64(),
	}
	// Each frame costs at least tag + vector length prefix (16 bytes).
	n := d.count(16)
	if n > 0 {
		s.Frames = make([]pipeline.FrameState, n)
		for i := range s.Frames {
			s.Frames[i].Tag = d.i64()
			s.Frames[i].Vec = d.floats()
		}
	}
	if d.ver >= 3 {
		// Each shard slot costs at least its presence bool (1 byte).
		ns := d.count(1)
		if ns > 0 {
			s.Shards = make([]*sketch.ARAMSState, ns)
			for i := range s.Shards {
				if d.bool() {
					s.Shards[i] = decodeARAMS(d)
				}
			}
		}
	} else if d.bool() {
		// v1/v2 checkpoints carried one optional sketch: decode it as a
		// single-shard layout.
		s.Shards = []*sketch.ARAMSState{decodeARAMS(d)}
	}
	if d.ver >= 2 {
		if d.bool() {
			s.Audit = decodeAuditState(d)
		}
		if d.bool() {
			s.Journal = decodeJournal(d)
		}
	}
	return s
}

// --- audit state (frame version 2+) ---

func encodeDetector(e *enc, s *audit.DetectorState) {
	e.str(s.Kind)
	e.f64(s.Thresh)
	e.f64(s.Slack)
	e.i64(s.Warmup)
	e.i64(s.N)
	e.f64(s.Mean)
	e.f64(s.Pos)
	e.f64(s.PosExt)
	e.f64(s.Neg)
	e.f64(s.NegExt)
}

func decodeDetector(d *dec) audit.DetectorState {
	return audit.DetectorState{
		Kind:   d.str(),
		Thresh: d.f64(),
		Slack:  d.f64(),
		Warmup: d.i64(),
		N:      d.i64(),
		Mean:   d.f64(),
		Pos:    d.f64(),
		PosExt: d.f64(),
		Neg:    d.f64(),
		NegExt: d.f64(),
	}
}

func encodeAuditState(e *enc, s *audit.State) {
	e.u64(uint64(s.Batches))
	e.u64(uint64(s.Alarms))
	encodeDetector(e, &s.Residual)
	encodeDetector(e, &s.Accept)
}

func decodeAuditState(d *dec) *audit.State {
	return &audit.State{
		Batches:  int64(d.u64()),
		Alarms:   int64(d.u64()),
		Residual: decodeDetector(d),
		Accept:   decodeDetector(d),
	}
}

// encodeJournal serializes the retained event ring. Timestamps are
// stored as Unix nanoseconds, which round-trips exactly (monotonic
// clock readings are deliberately dropped — a restored process has a
// different one anyway).
func encodeJournal(e *enc, s *audit.JournalState) {
	e.u64(uint64(s.Seq))
	e.i64(len(s.Events))
	for _, ev := range s.Events {
		e.u64(uint64(ev.Seq))
		e.u64(uint64(ev.Time.UnixNano()))
		e.str(string(ev.Kind))
		e.str(ev.Msg)
		e.i64(len(ev.Attrs))
		for _, a := range ev.Attrs {
			e.str(a.Key)
			e.f64(a.Val)
		}
	}
}

func decodeJournal(d *dec) *audit.JournalState {
	s := &audit.JournalState{Seq: int64(d.u64())}
	// Each event costs at least seq+time+2 length prefixes+attr count
	// (40 bytes).
	n := d.count(40)
	if n > 0 {
		s.Events = make([]audit.Event, n)
		for i := range s.Events {
			ev := &s.Events[i]
			ev.Seq = int64(d.u64())
			ev.Time = time.Unix(0, int64(d.u64())).UTC()
			ev.Kind = audit.EventKind(d.str())
			ev.Msg = d.str()
			// Each attr costs at least a key length prefix + value.
			na := d.count(16)
			if na > 0 {
				ev.Attrs = make([]audit.Attr, na)
				for j := range ev.Attrs {
					ev.Attrs[j].Key = d.str()
					ev.Attrs[j].Val = d.f64()
				}
			}
		}
	}
	return s
}
