package sherman

import "chime/internal/offroute"

// Public operation entry points: each goes through the client's
// offroute.Port, which routes it between the one-sided implementation
// and the MN-side program (mnprog.go).

// newPort wires the client's routed entry points. Indirect values need
// client-side allocation and lease locks carry the holder's identity, so
// updates under either stay one-sided.
func (c *Client) newPort() offroute.Port {
	o := c.ix.opts
	return offroute.Port{
		DC: c.dc, Tracer: c.obs.Tracer, Router: offroute.New(o.Offload),
		Prog: c.ix.mnprog, MN: c.ix.offMN, SpanPrefix: "sherman",
		SearchOneSided: c.searchOneSided, UpdateOneSided: c.updateOneSided, ScanOneSided: c.scanOneSided,
		ReadOK: true, UpdateOK: !o.Indirect && !o.LeaseLocks,
		ValueSize: o.ValueSize, RecSize: 8 + o.ValueSize,
	}
}

// Search performs a point query. With offload enabled the op may
// execute as a single LeafSearchAtMN RPC instead of fetching the whole
// leaf node to the CN.
func (c *Client) Search(key uint64) ([]byte, error) { return c.port.Search(key) }

// Update overwrites an existing key's value, possibly as a single
// CompareAndCASAtMN RPC.
func (c *Client) Update(key uint64, value []byte) error { return c.port.Update(key, value) }

// Scan returns up to count items with keys >= start in ascending order,
// possibly as a single ScatterGatherScan RPC.
func (c *Client) Scan(start uint64, count int) ([]KV, error) { return c.port.Scan(start, count) }

// ScanTo is Scan into the caller's buffer, whose storage it reuses: what
// the buffer held before is overwritten.
func (c *Client) ScanTo(buf *offroute.ScanBuf, start uint64, count int) error {
	return c.port.ScanTo(buf, start, count)
}

// OffloadStats reports how many of this client's routed ops went to
// each path (zeros with offload off).
func (c *Client) OffloadStats() (offloaded, onesided uint64) { return c.port.OffloadStats() }
