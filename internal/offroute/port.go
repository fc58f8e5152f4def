package offroute

import (
	"encoding/binary"
	"errors"

	"chime/internal/dmsim"
	"chime/internal/obs"
)

// ErrNotFound reports that a key is absent. The four indexes share the
// sentinel (each re-exports it), so a caller matches one error whichever
// index, and whichever path through it, served the op.
var ErrNotFound = errors.New("index: key not found")

// KV is one result of a range scan, shared by the four indexes.
type KV struct {
	Key   uint64
	Value []byte
}

// Port is one index client's routed entry points: Search, Update and
// Scan, each bracketed by its trace span and flight-ledger op, gated on
// whether the index's MN-side program supports the op for this
// configuration, sent to the router's choice of path, and — when the
// program hands an offloaded op back — redone one-sided. Support gates
// run before the router so unsupported ops never pollute its cost
// estimates; a fallback reports the combined cost (RPC + redo) as the
// offload's, so adaptive mode learns that offloading this workload is
// expensive. The index client fills in the fields once at construction;
// a nil Router routes everything one-sided.
type Port struct {
	DC     *dmsim.Client
	Tracer *obs.Tracer
	Router *Router

	// Prog is the index's MN-side program, addressed on MN.
	Prog dmsim.MNProgramID
	MN   int

	// SpanPrefix names the trace spans: "<prefix>.search" and so on.
	SpanPrefix string

	// The one-sided implementations. UpdateOneSided may be nil for an
	// index that does not route updates through the port.
	SearchOneSided func(key uint64) ([]byte, error)
	UpdateOneSided func(key uint64, value []byte) error
	ScanOneSided   func(buf *ScanBuf, start uint64, count int) error

	// ReadOK / UpdateOK say whether the program serves searches and
	// scans / in-place updates for this index configuration.
	ReadOK, UpdateOK bool

	// Arg, when set, computes the verb argument for key on the offload
	// path (ROLEX ships its model's predicted group); its virtual-time
	// cost counts toward the offload.
	Arg func(key uint64) uint64

	// ValueSize sizes the search response buffer; RecSize is the size of
	// one [8B key][value] scan record.
	ValueSize, RecSize int

	buf []byte // search response, reused
}

// ticket is one op's routing decision and the clock/trip readings its
// cost is measured from.
type ticket struct {
	routed, offload bool
	t0, trips0      int64
}

// Begin opens one op: its trace span, "<prefix><op>", and its
// flight-ledger op of the class. End closes both. The routed entry points
// bracket themselves; an index brackets its other ops with the pair.
func (p *Port) Begin(op string, class obs.OpClass) (sp *obs.Span) {
	now := p.DC.Now()
	if p.Tracer != nil { // the name is only built when someone records it
		sp = p.Tracer.Begin(p.SpanPrefix+op, "idx", p.DC.ID(), now)
	}
	p.DC.Flight().Begin(class, now)
	return sp
}

// End closes what Begin opened.
func (p *Port) End(sp *obs.Span) {
	now := p.DC.Now()
	p.DC.Flight().End(now)
	sp.End(now)
}

// admit decides one op's path.
func (p *Port) admit(supported bool) ticket {
	if p.Router == nil || !supported {
		return ticket{}
	}
	return ticket{routed: true, offload: p.Router.UseOffload(), t0: p.DC.Now(), trips0: p.DC.Stats().Trips}
}

// settle reports the finished op's cost to the router.
func (p *Port) settle(tk ticket) {
	switch {
	case !tk.routed:
	case tk.offload:
		p.Router.ObserveOffload(p.DC.Now() - tk.t0)
	default:
		p.Router.ObserveOneSided(p.DC.Now()-tk.t0, p.DC.Stats().Trips-tk.trips0)
	}
}

func (p *Port) arg(key uint64) uint64 {
	if p.Arg == nil {
		return 0
	}
	return p.Arg(key)
}

// Search performs a point query, ErrNotFound when the key is absent.
// Offloaded, it is one LeafSearchAtMN RPC.
func (p *Port) Search(key uint64) (val []byte, err error) {
	sp := p.Begin(".search", obs.OpSearch)
	tk := p.admit(p.ReadOK)
	oneSided := !tk.offload
	if tk.offload {
		if p.buf == nil {
			p.buf = make([]byte, max(p.ValueSize, 8))
		}
		n, st, verr := p.DC.LeafSearchAtMN(p.Prog, p.MN, key, p.arg(key), p.buf)
		switch {
		case verr != nil:
			p.End(sp)
			return nil, verr
		case st.Fallback():
			oneSided = true
		case st == dmsim.OffloadNotFound:
			err = ErrNotFound
		default:
			val = append([]byte(nil), p.buf[:n]...)
		}
	}
	if oneSided {
		val, err = p.SearchOneSided(key)
	}
	p.settle(tk)
	p.End(sp)
	return val, err
}

// Update overwrites the value of an existing key, ErrNotFound when it is
// absent. Offloaded, it is one CompareAndCASAtMN RPC.
func (p *Port) Update(key uint64, value []byte) (err error) {
	sp := p.Begin(".update", obs.OpUpdate)
	tk := p.admit(p.UpdateOK)
	oneSided := !tk.offload
	if tk.offload {
		st, verr := p.DC.CompareAndCASAtMN(p.Prog, p.MN, key, p.arg(key), value)
		switch {
		case verr != nil:
			p.End(sp)
			return verr
		case st.Fallback():
			oneSided = true
		case st == dmsim.OffloadNotFound:
			err = ErrNotFound
		}
	}
	if oneSided {
		err = p.UpdateOneSided(key, value)
	}
	p.settle(tk)
	p.End(sp)
	return err
}

// ScanTo fills buf with up to count items with keys >= start in
// ascending key order; what buf held is overwritten. Offloaded, the
// whole range collection is one ScatterGatherScan RPC whose response
// carries [8B key][value] records.
func (p *Port) ScanTo(buf *ScanBuf, start uint64, count int) (err error) {
	if count <= 0 {
		buf.Out = buf.Out[:0]
		return nil
	}
	sp := p.Begin(".scan", obs.OpScan)
	tk := p.admit(p.ReadOK)
	oneSided := !tk.offload
	if tk.offload {
		arg := p.arg(start)
		dst := make([]byte, count*p.RecSize)
		n, st, verr := p.DC.ScatterGatherScan(p.Prog, p.MN, start, arg, count, dst)
		switch {
		case verr != nil:
			p.End(sp)
			return verr
		case st.Fallback():
			oneSided = true
		default:
			buf.Reset(n/p.RecSize, p.RecSize-8)
			for off := 0; off+p.RecSize <= n; off += p.RecSize {
				buf.Add(binary.LittleEndian.Uint64(dst[off:]), dst[off+8:off+p.RecSize])
			}
		}
	}
	if oneSided {
		err = p.ScanOneSided(buf, start, count)
	}
	p.settle(tk)
	p.End(sp)
	return err
}

// Scan is ScanTo into a buffer of the scan's own.
func (p *Port) Scan(start uint64, count int) ([]KV, error) {
	var buf ScanBuf
	if err := p.ScanTo(&buf, start, count); err != nil {
		return nil, err
	}
	return buf.Out, nil
}

// OffloadStats reports how many routed ops went to each path (zeros with
// offload off).
func (p *Port) OffloadStats() (offloaded, onesided uint64) {
	return p.Router.Stats()
}
