package cache

import (
	"encoding/binary"
	"math/bits"

	"nocsim/internal/rng"
	"nocsim/internal/snap"
)

// Checkpoint codec for the L1 model and the stochastic address
// mappers. L1 geometry (sets/ways/masks) is construction-derived; only
// the valid lines (tag and meta byte, which carries the LRU rank) and
// the counters are encoded. The mappers' topology and member tables
// are likewise construction-derived — their only mutable state is the
// per-source random streams (and, for Locality, a scratch buffer that
// every draw rewrites from scratch).

func init() {
	snap.Cover(L1{}, snap.Coverage{
		Serialized: []string{
			"tags", "meta", "hits", "misses", "writebacks",
		},
		Waived: map[string]string{
			"sets":      "construction: derived from L1Config",
			"ways":      "construction: derived from L1Config",
			"blockBits": "construction: derived from L1Config",
			"setMask":   "construction: derived from L1Config",
		},
	})
	snap.Cover(L1Config{}, snap.Coverage{
		Waived: map[string]string{
			"SizeBytes":  "config: derived from sim.Config",
			"Ways":       "config: derived from sim.Config",
			"BlockBytes": "config: derived from sim.Config",
		},
	})
	snap.Cover(XORInterleave{}, snap.Coverage{
		Waived: map[string]string{
			"nodes":      "construction: stateless mapper",
			"blockShift": "construction: stateless mapper",
		},
	})
	snap.Cover(Fixed{}, snap.Coverage{
		Waived: map[string]string{"Dst": "config: stateless mapper"},
	})
	snap.Cover(Locality{}, snap.Coverage{
		Serialized: []string{"srcs"},
		Waived: map[string]string{
			"top":        "construction: topology is config-derived",
			"kind":       "construction: derived from LocalityConfig",
			"mean":       "construction: derived from LocalityConfig",
			"alpha":      "construction: derived from LocalityConfig",
			"blockShift": "construction: derived from LocalityConfig",
			"scratch":    "scratch: truncated to zero length and rebuilt by every draw before any read",
		},
	})
	snap.Cover(Grouped{}, snap.Coverage{
		Serialized: []string{"srcs"},
		Waived: map[string]string{
			"group":   "construction: derived from the group assignment",
			"members": "construction: derived from the group assignment",
		},
	})
}

const (
	tagL1     = 0x12
	tagMapper = 0x13
)

// l1FixedBytes is the L1 section's size apart from its lines: the
// section tag, the line count and the three counters.
const l1FixedBytes = 2 + 4 + 3*8

// Snapshot encodes the cache's contents and counters: a bitmap of the
// valid lines, then each valid line's tag and meta byte in line order.
// Invalid lines carry no state, so they cost one bit each.
func (c *L1) Snapshot(w *snap.Writer) {
	n := len(c.meta)
	w.Grow(l1FixedBytes + (n+7)/8)
	w.Tag(tagL1)
	w.U32(uint32(n))
	start := w.Len()
	valid := 0
	for i := 0; i < n; i += 8 {
		b := validBits(c.meta[i:min(i+8, n)])
		valid += bits.OnesCount8(b)
		w.U8(b)
	}
	w.Grow(9 * valid)
	for i, b := range w.Bytes()[start : start+(n+7)/8] {
		for ; b != 0; b &= b - 1 {
			line := 8*i + bits.TrailingZeros8(b)
			w.U64(c.tags[line])
			w.U8(c.meta[line])
		}
	}
	w.I64(c.hits)
	w.I64(c.misses)
	w.I64(c.writebacks)
}

// validBits gathers the valid bits of up to eight meta bytes into one
// bitmap byte, bit j for meta[j]. A full group is one 64-bit load: the
// multiply moves bit 0 of byte j to bit 56+j, and no two partial
// products overlap, so nothing carries into the top byte.
func validBits(meta []uint8) uint8 {
	if len(meta) == 8 {
		x := binary.LittleEndian.Uint64(meta) & 0x0101010101010101
		return uint8(x * 0x0102040810204080 >> 56)
	}
	var b uint8
	for j, m := range meta {
		b |= (m & metaValid) << j
	}
	return b
}

// Restore overlays contents captured by Snapshot onto a cache
// constructed with the same geometry. Lines the blob marks invalid are
// cleared, whatever the fresh cache was pre-warmed with. Each set's
// ranks must be a permutation of 0..k-1 over its k valid lines.
func (c *L1) Restore(r *snap.Reader) {
	r.Expect(tagL1)
	n := int(r.U32())
	if r.Err() != nil {
		return
	}
	if n != len(c.meta) {
		r.Failf("L1 lines %d, want %d", n, len(c.meta))
		return
	}
	valid := r.Raw((n + 7) / 8)
	if valid == nil {
		return
	}
	if n%8 != 0 && valid[len(valid)-1]>>(n%8) != 0 {
		r.Failf("L1 valid bitmap has bits past line %d", n)
		return
	}
	clear(c.meta)
	set, ranks, k := 0, uint64(0), 0 // the set being filled and its ranks so far
	for i, b := range valid {
		for ; b != 0; b &= b - 1 {
			line := 8*i + bits.TrailingZeros8(b)
			if s := line / c.ways; s != set {
				if !ranksComplete(r, set, ranks, k) {
					return
				}
				set, ranks, k = s, 0, 0
			}
			c.tags[line] = r.U64()
			m := r.U8()
			rank := int(m >> rankShift)
			if m&metaValid == 0 || rank >= c.ways {
				r.Failf("L1 line %d: bad meta byte %#x", line, m)
				return
			}
			c.meta[line] = m
			ranks |= 1 << rank
			k++
		}
	}
	if !ranksComplete(r, set, ranks, k) {
		return
	}
	c.hits = r.I64()
	c.misses = r.I64()
	c.writebacks = r.I64()
}

// ranksComplete reports whether the rank mask of a set's k valid lines
// holds exactly the ranks 0..k-1, and fails the reader if not.
func ranksComplete(r *snap.Reader, set int, ranks uint64, k int) bool {
	if ranks != 1<<k-1 {
		r.Failf("L1 set %d: LRU ranks %#x are not 0..%d", set, ranks, k-1)
		return false
	}
	return true
}

// SnapshotMapper encodes the mutable state of a mapper constructed by
// the simulator. Stateless mappers (XORInterleave, Fixed) encode
// nothing but the section tag, so the framing still checks out.
func SnapshotMapper(w *snap.Writer, m Mapper) {
	w.Tag(tagMapper)
	switch v := m.(type) {
	case *Locality:
		w.U32(uint32(len(v.srcs)))
		for _, s := range v.srcs {
			s.Snapshot(w)
		}
	case *Grouped:
		w.U32(uint32(len(v.srcs)))
		for _, s := range v.srcs {
			s.Snapshot(w)
		}
	default:
		w.U32(0)
	}
}

// RestoreMapper overlays stream state captured by SnapshotMapper onto
// an identically constructed mapper.
func RestoreMapper(r *snap.Reader, m Mapper) {
	r.Expect(tagMapper)
	n := int(r.U32())
	var srcs []*rng.Source
	switch v := m.(type) {
	case *Locality:
		srcs = v.srcs
	case *Grouped:
		srcs = v.srcs
	}
	if n != len(srcs) {
		r.Failf("mapper streams %d, want %d", n, len(srcs))
		return
	}
	for _, s := range srcs {
		s.Restore(r)
	}
}
