package core

import "chime/internal/offroute"

// Public operation entry points: each goes through the client's
// offroute.Port, which routes it between the one-sided implementation
// and the MN-side program (mnprog.go) when the program supports the op
// for this tree's configuration.

// offloadSearchOK reports whether the MN program can serve point
// lookups for this configuration. Indirect values are fine — the
// program resolves KV blocks MN-side; variable-length key chains are
// not (fingerprint collision handling needs the client).
func (ix *Index) offloadSearchOK() bool { return !ix.opts.VarKeys }

// offloadUpdateOK reports whether the MN program can serve in-place
// updates: indirect values need client-side allocation and lease locks
// carry the holder's identity, so both stay one-sided.
func (ix *Index) offloadUpdateOK() bool {
	return !ix.opts.VarKeys && !ix.opts.Indirect && !ix.opts.LeaseLocks
}

// newPort wires the client's routed entry points (offroute.Port).
func (c *Client) newPort() offroute.Port {
	return offroute.Port{
		DC: c.dc, Tracer: c.obs.Tracer, Router: offroute.New(c.ix.opts.Offload),
		Prog: c.ix.mnprog, MN: c.ix.offMN, SpanPrefix: "chime",
		SearchOneSided: c.searchOneSided, UpdateOneSided: c.updateOneSided, ScanOneSided: c.scanOneSided,
		ReadOK: c.ix.offloadSearchOK(), UpdateOK: c.ix.offloadUpdateOK(),
		ValueSize: c.ix.opts.ValueSize, RecSize: 8 + c.ix.opts.ValueSize,
	}
}

// Search performs a point query (§4.4). It returns ErrNotFound when the
// key is absent. With offload enabled the op may execute as a single
// LeafSearchAtMN RPC instead of a one-sided traversal.
func (c *Client) Search(key uint64) ([]byte, error) { return c.port.Search(key) }

// Update overwrites the value of an existing key, returning ErrNotFound
// if the key is absent. With offload enabled the op may execute as a
// single CompareAndCASAtMN RPC.
func (c *Client) Update(key uint64, value []byte) error { return c.port.Update(key, value) }

// Scan returns up to count items with keys >= start, in ascending key
// order (§4.4). With offload enabled the whole range collection may
// execute as a single ScatterGatherScan RPC.
func (c *Client) Scan(start uint64, count int) ([]KV, error) { return c.port.Scan(start, count) }

// ScanTo is Scan into the caller's buffer, whose storage it reuses: what
// the buffer held before is overwritten.
func (c *Client) ScanTo(buf *offroute.ScanBuf, start uint64, count int) error {
	return c.port.ScanTo(buf, start, count)
}

// OffloadStats reports how many of this client's routed ops went to
// each path (zeros with offload off).
func (c *Client) OffloadStats() (offloaded, onesided uint64) { return c.port.OffloadStats() }
