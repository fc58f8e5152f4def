package core

import (
	"encoding/binary"

	"chime/internal/dmsim"
	"chime/internal/obs"
)

// Public operation entry points and the hybrid one-sided/offload router
// wiring. Each op consults the client's offroute.Router (nil = always
// one-sided) after checking that the MN-side program supports the op for
// this tree's configuration; support gates run before the router so
// unsupported ops never pollute its cost estimates. A routed offload
// whose program returns a fallback verdict redoes the op one-sided and
// reports the combined cost to the router, so adaptive mode learns that
// offloading this workload is expensive.

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

// Search performs a point query (§4.4). It returns ErrNotFound when the
// key is absent. With offload enabled the op may execute as a single
// LeafSearchAtMN RPC instead of a one-sided traversal.
func (c *Client) Search(key uint64) ([]byte, error) {
	if sp := c.obs.Tracer.Begin("chime.search", "idx", c.dc.ID(), c.dc.Now()); sp != nil {
		defer func() { sp.End(c.dc.Now()) }()
	}
	if fl := c.dc.Flight(); fl != nil {
		fl.Begin(obs.OpSearch, c.dc.Now())
		defer func() { fl.End(c.dc.Now()) }()
	}
	if c.router == nil || !c.ix.offloadSearchOK() {
		return c.searchOneSided(key)
	}
	if !c.router.UseOffload() {
		t0, trips0 := c.dc.Now(), c.dc.Stats().Trips
		val, err := c.searchOneSided(key)
		c.router.ObserveOneSided(c.dc.Now()-t0, c.dc.Stats().Trips-trips0)
		return val, err
	}
	t0 := c.dc.Now()
	n, st, err := c.dc.LeafSearchAtMN(c.ix.mnprog, c.ix.offMN, key, 0, c.offBuf)
	if err != nil {
		return nil, err
	}
	if !st.Fallback() {
		c.router.ObserveOffload(c.dc.Now() - t0)
		if st == dmsim.OffloadNotFound {
			return nil, ErrNotFound
		}
		return append([]byte(nil), c.offBuf[:n]...), nil
	}
	// Fallback: redo one-sided; the offload estimate absorbs the full
	// combined cost.
	val, err := c.searchOneSided(key)
	c.router.ObserveOffload(c.dc.Now() - t0)
	return val, err
}

// Update overwrites the value of an existing key, returning ErrNotFound
// if the key is absent. With offload enabled the op may execute as a
// single CompareAndCASAtMN RPC.
func (c *Client) Update(key uint64, value []byte) error {
	if sp := c.obs.Tracer.Begin("chime.update", "idx", c.dc.ID(), c.dc.Now()); sp != nil {
		defer func() { sp.End(c.dc.Now()) }()
	}
	if fl := c.dc.Flight(); fl != nil {
		fl.Begin(obs.OpUpdate, c.dc.Now())
		defer func() { fl.End(c.dc.Now()) }()
	}
	if c.router == nil || !c.ix.offloadUpdateOK() {
		return c.updateOneSided(key, value)
	}
	if !c.router.UseOffload() {
		t0, trips0 := c.dc.Now(), c.dc.Stats().Trips
		err := c.updateOneSided(key, value)
		c.router.ObserveOneSided(c.dc.Now()-t0, c.dc.Stats().Trips-trips0)
		return err
	}
	t0 := c.dc.Now()
	st, err := c.dc.CompareAndCASAtMN(c.ix.mnprog, c.ix.offMN, key, 0, value)
	if err != nil {
		return err
	}
	if !st.Fallback() {
		c.router.ObserveOffload(c.dc.Now() - t0)
		if st == dmsim.OffloadNotFound {
			return ErrNotFound
		}
		return nil
	}
	err = c.updateOneSided(key, value)
	c.router.ObserveOffload(c.dc.Now() - t0)
	return err
}

// Scan returns up to count items with keys >= start, in ascending key
// order (§4.4). With offload enabled the whole range collection may
// execute as a single ScatterGatherScan RPC whose response carries
// [8B key][value] records.
func (c *Client) Scan(start uint64, count int) ([]KV, error) {
	if count <= 0 {
		return nil, nil
	}
	if sp := c.obs.Tracer.Begin("chime.scan", "idx", c.dc.ID(), c.dc.Now()); sp != nil {
		defer func() { sp.End(c.dc.Now()) }()
	}
	if fl := c.dc.Flight(); fl != nil {
		fl.Begin(obs.OpScan, c.dc.Now())
		defer func() { fl.End(c.dc.Now()) }()
	}
	if c.router == nil || !c.ix.offloadSearchOK() {
		return c.scanOneSided(start, count)
	}
	if !c.router.UseOffload() {
		t0, trips0 := c.dc.Now(), c.dc.Stats().Trips
		out, err := c.scanOneSided(start, count)
		c.router.ObserveOneSided(c.dc.Now()-t0, c.dc.Stats().Trips-trips0)
		return out, err
	}
	t0 := c.dc.Now()
	recSize := 8 + c.ix.opts.ValueSize
	dst := make([]byte, count*recSize)
	n, st, err := c.dc.ScatterGatherScan(c.ix.mnprog, c.ix.offMN, start, 0, count, dst)
	if err != nil {
		return nil, err
	}
	if !st.Fallback() {
		c.router.ObserveOffload(c.dc.Now() - t0)
		out := make([]KV, 0, n/recSize)
		for off := 0; off+recSize <= n; off += recSize {
			out = append(out, KV{
				Key:   binary.LittleEndian.Uint64(dst[off : off+8]),
				Value: dst[off+8 : off+recSize : off+recSize],
			})
		}
		return out, nil
	}
	out, err := c.scanOneSided(start, count)
	c.router.ObserveOffload(c.dc.Now() - t0)
	return out, err
}

// OffloadStats reports how many of this client's routed ops went to
// each path (zeros with offload off).
func (c *Client) OffloadStats() (offloaded, onesided uint64) {
	return c.router.Stats()
}
