package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"chime/internal/dmsim"
)

// Variable-length key support (§4.5): the first 8 bytes of the key act
// as a fingerprint stored in the leaf entry, while the full key and
// value live in a remote block linked from the entry. Keys sharing a
// fingerprint (rare) chain their blocks; a lookup walks the chain
// comparing full keys.
//
// Block layout: [8B next][2B keyLen][4B valLen][key][value].
//
// Blocks are immutable once published: updates and deletes rebuild the
// affected chain prefix into fresh blocks under the leaf lock and
// repoint the leaf entry, so lock-free readers always observe a
// complete, valid chain (possibly one update old — the same overlap
// semantics as inline values).

const (
	varBlockHeader = 8 + 2 + 4
	maxVarKeyLen   = 1<<16 - 1
	maxVarValLen   = 1<<31 - 1
)

// KVBytes is one variable-length scan result.
type KVBytes struct {
	Key   []byte
	Value []byte
}

// FingerprintOf returns the 8-byte big-endian prefix fingerprint used
// to place a variable-length key in the tree. Fingerprint order equals
// bytewise prefix order, so range scans remain meaningful.
func FingerprintOf(key []byte) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

func (c *Client) requireVarKeys() error {
	if !c.ix.opts.VarKeys {
		return fmt.Errorf("core: variable-length API requires Options.VarKeys")
	}
	return nil
}

func validateVarKV(key, value []byte) error {
	if len(key) == 0 || len(key) > maxVarKeyLen {
		return fmt.Errorf("core: key length %d out of [1,%d]", len(key), maxVarKeyLen)
	}
	if len(value) > maxVarValLen {
		return fmt.Errorf("core: value length %d too large", len(value))
	}
	return nil
}

// varBlock is a decoded chain block.
type varBlock struct {
	addr dmsim.GAddr
	next dmsim.GAddr
	key  []byte
	val  []byte
}

// writeVarBlock allocates and writes a block, returning its address.
func (c *Client) writeVarBlock(next dmsim.GAddr, key, value []byte) (dmsim.GAddr, error) {
	buf := make([]byte, varBlockHeader+len(key)+len(value))
	binary.LittleEndian.PutUint64(buf[0:8], next.Pack())
	binary.LittleEndian.PutUint16(buf[8:10], uint16(len(key)))
	binary.LittleEndian.PutUint32(buf[10:14], uint32(len(value)))
	copy(buf[varBlockHeader:], key)
	copy(buf[varBlockHeader+len(key):], value)
	addr, err := c.alloc.Alloc(len(buf))
	if err != nil {
		return dmsim.NilGAddr, err
	}
	if err := c.dc.Write(addr, buf); err != nil {
		return dmsim.NilGAddr, err
	}
	return addr, nil
}

// readVarBlock fetches a chain block. Block sizes vary, so the header
// and body are fetched with one doorbell batch sized by a conservative
// first segment: the header plus maxInline bytes; longer bodies cost a
// second read (rare with typical KV sizes).
func (c *Client) readVarBlock(addr dmsim.GAddr) (varBlock, error) {
	const firstFetch = 256
	buf := make([]byte, firstFetch)
	if err := c.dc.Read(addr, buf); err != nil {
		return varBlock{}, err
	}
	next := dmsim.UnpackGAddr(binary.LittleEndian.Uint64(buf[0:8]))
	keyLen := int(binary.LittleEndian.Uint16(buf[8:10]))
	valLen := int(binary.LittleEndian.Uint32(buf[10:14]))
	total := varBlockHeader + keyLen + valLen
	if total > firstFetch {
		rest := make([]byte, total-firstFetch)
		if err := c.dc.Read(addr.Add(firstFetch), rest); err != nil {
			return varBlock{}, err
		}
		buf = append(buf, rest...)
	}
	b := varBlock{
		addr: addr,
		next: next,
		key:  buf[varBlockHeader : varBlockHeader+keyLen],
		val:  buf[varBlockHeader+keyLen : total],
	}
	return b, nil
}

// readChain walks a fingerprint chain from head.
func (c *Client) readChain(head dmsim.GAddr) ([]varBlock, error) {
	var chain []varBlock
	for cur := head; !cur.IsNil(); {
		b, err := c.readVarBlock(cur)
		if err != nil {
			return nil, err
		}
		chain = append(chain, b)
		cur = b.next
		if len(chain) > 1024 {
			return nil, fmt.Errorf("core: fingerprint chain too long (corrupt?)")
		}
	}
	return chain, nil
}

func ptrBytes(addr dmsim.GAddr) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, addr.Pack())
	return b
}

func ptrOf(val []byte) dmsim.GAddr {
	return dmsim.UnpackGAddr(binary.LittleEndian.Uint64(val[:8]))
}

// SearchKV looks up a variable-length key (§4.5).
func (c *Client) SearchKV(key []byte) ([]byte, error) {
	if err := c.requireVarKeys(); err != nil {
		return nil, err
	}
	if err := validateVarKV(key, nil); err != nil {
		return nil, err
	}
	head, err := c.Search(FingerprintOf(key))
	if err != nil {
		return nil, err
	}
	chain, err := c.readChain(ptrOf(head))
	if err != nil {
		return nil, err
	}
	for _, b := range chain {
		if bytes.Equal(b.key, key) {
			return append([]byte(nil), b.val...), nil
		}
	}
	return nil, ErrNotFound
}

// InsertKV inserts or overwrites a variable-length key.
func (c *Client) InsertKV(key, value []byte) error {
	if err := c.requireVarKeys(); err != nil {
		return err
	}
	if err := validateVarKV(key, value); err != nil {
		return err
	}
	fp := FingerprintOf(key)
	return c.writeOne(writeUpsert, fp, nil, func(old []byte, exists bool) ([]byte, bool, error) {
		if !exists {
			addr, err := c.writeVarBlock(dmsim.NilGAddr, key, value)
			if err != nil {
				return nil, false, err
			}
			return ptrBytes(addr), true, nil
		}
		// Fingerprint collision or update: rebuild the chain with the
		// new (key, value) replacing any exact match, keeping blocks
		// immutable.
		chain, err := c.readChain(ptrOf(old))
		if err != nil {
			return nil, false, err
		}
		head, err := c.rebuildChain(chain, key, value, true)
		return head, true, err
	})
}

// UpdateKV overwrites an existing variable-length key, ErrNotFound
// otherwise.
func (c *Client) UpdateKV(key, value []byte) error {
	if err := c.requireVarKeys(); err != nil {
		return err
	}
	if err := validateVarKV(key, value); err != nil {
		return err
	}
	_, err := c.SearchKV(key) // cheap existence probe; races map to upsert
	if err != nil {
		return err
	}
	return c.InsertKV(key, value)
}

// rebuildChain writes a new chain equal to the old one with `key`
// removed (and, when insert is set, re-added at the head with the new
// value). It returns the new head pointer bytes, or nil when the
// resulting chain is empty.
func (c *Client) rebuildChain(chain []varBlock, key, value []byte, insert bool) ([]byte, error) {
	// The suffix strictly after the removed block can be reused as-is
	// (blocks are immutable); only the prefix needs copying.
	removed := -1
	for i, b := range chain {
		if bytes.Equal(b.key, key) {
			removed = i
			break
		}
	}
	var tail dmsim.GAddr // head of the reusable suffix
	prefix := chain
	if removed >= 0 {
		tail = chain[removed].next
		prefix = chain[:removed]
	} else if len(chain) > 0 {
		// Nothing removed: reuse the whole chain as the suffix.
		tail = chain[0].addr
		prefix = nil
	}
	// Copy the prefix back-to-front so each copy can point at the next.
	cur := tail
	for i := len(prefix) - 1; i >= 0; i-- {
		addr, err := c.writeVarBlock(cur, prefix[i].key, prefix[i].val)
		if err != nil {
			return nil, err
		}
		cur = addr
	}
	if insert {
		addr, err := c.writeVarBlock(cur, key, value)
		if err != nil {
			return nil, err
		}
		cur = addr
	}
	if cur.IsNil() {
		return nil, nil
	}
	return ptrBytes(cur), nil
}

// DeleteKV removes a variable-length key; the leaf entry disappears
// when its fingerprint chain empties.
func (c *Client) DeleteKV(key []byte) error {
	if err := c.requireVarKeys(); err != nil {
		return err
	}
	if err := validateVarKV(key, nil); err != nil {
		return err
	}
	fp := FingerprintOf(key)
	return c.writeOne(writeDelete, fp, nil, func(old []byte, _ bool) ([]byte, bool, error) {
		chain, err := c.readChain(ptrOf(old))
		if err != nil {
			return nil, false, err
		}
		found := false
		for _, b := range chain {
			if bytes.Equal(b.key, key) {
				found = true
				break
			}
		}
		if !found {
			return nil, false, ErrNotFound
		}
		head, err := c.rebuildChain(chain, key, nil, false)
		if err != nil {
			return nil, false, err
		}
		if head == nil {
			return nil, false, nil // chain empty: drop the entry
		}
		return head, true, nil
	})
}

// ScanKV returns up to count items with keys bytewise >= start, in
// bytewise key order.
func (c *Client) ScanKV(start []byte, count int) ([]KVBytes, error) {
	if err := c.requireVarKeys(); err != nil {
		return nil, err
	}
	if count <= 0 {
		return nil, nil
	}
	fpStart := FingerprintOf(start)
	fetch := count
	for try := 0; try < 32; try++ {
		entries, err := c.Scan(fpStart, fetch)
		if err != nil {
			return nil, err
		}
		var out []KVBytes
		for _, kv := range entries {
			chain, err := c.readChain(ptrOf(kv.Value))
			if err != nil {
				return nil, err
			}
			var group []KVBytes
			for _, b := range chain {
				if bytes.Compare(b.key, start) >= 0 {
					group = append(group, KVBytes{
						Key:   append([]byte(nil), b.key...),
						Value: append([]byte(nil), b.val...),
					})
				}
			}
			sortKVBytes(group)
			out = append(out, group...)
		}
		if len(out) >= count {
			return out[:count], nil
		}
		if len(entries) < fetch {
			return out, nil // index exhausted
		}
		fetch *= 2
	}
	return nil, fmt.Errorf("core: ScanKV(%q): expansion retries exhausted", start)
}

func sortKVBytes(kvs []KVBytes) {
	// Insertion sort: groups are fingerprint-collision sets, almost
	// always of size 1.
	for i := 1; i < len(kvs); i++ {
		for j := i; j > 0 && bytes.Compare(kvs[j].Key, kvs[j-1].Key) < 0; j-- {
			kvs[j], kvs[j-1] = kvs[j-1], kvs[j]
		}
	}
}
