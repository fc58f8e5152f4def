package smartidx

import "chime/internal/offroute"

// Public read entry points: each goes through the client's
// offroute.Port, which routes it between the one-sided implementation
// and the MN-side program (mnprog.go). Only reads route: SMART's writes
// allocate leaf blocks (and nodes) client-side, so Insert/Update/Delete
// stay pure one-sided and never touch the router.

// newPort wires the client's routed entry points.
func (c *Client) newPort() offroute.Port {
	return offroute.Port{
		DC: c.dc, Tracer: c.obs.Tracer, Router: offroute.New(c.ix.opts.Offload),
		Prog: c.ix.mnprog, MN: c.ix.offMN, SpanPrefix: "smart",
		SearchOneSided: c.searchOneSided, ScanOneSided: c.scanOneSided,
		ReadOK:    true,
		ValueSize: c.ix.opts.ValueSize, RecSize: c.ix.leafSz,
	}
}

// Search performs a point query. With offload enabled the radix descent
// and leaf read may run MN-side as a single LeafSearchAtMN RPC.
func (c *Client) Search(key uint64) ([]byte, error) { return c.port.Search(key) }

// Scan returns up to count items with keys >= start in ascending order,
// possibly as a single ScatterGatherScan RPC instead of one leaf READ
// round trip per result.
func (c *Client) Scan(start uint64, count int) ([]KV, error) { return c.port.Scan(start, count) }

// ScanTo is Scan into the caller's buffer, whose storage it reuses: what
// the buffer held before is overwritten.
func (c *Client) ScanTo(buf *offroute.ScanBuf, start uint64, count int) error {
	return c.port.ScanTo(buf, start, count)
}

// OffloadStats reports how many of this client's routed ops went to
// each path (zeros with offload off).
func (c *Client) OffloadStats() (offloaded, onesided uint64) { return c.port.OffloadStats() }
