package cache

import (
	"fmt"
	"testing"

	"nocsim/internal/rng"
	"nocsim/internal/snap"
)

// refL1 is the reference model the compact L1 must reproduce: the
// stamp-based true-LRU cache, where every line carries a 64-bit
// last-use stamp from a per-cache clock. A miss fills the set's last
// invalid way, or else evicts the valid line with the smallest stamp.
type refL1 struct {
	ways      int
	blockBits uint
	setMask   uint64
	tags      []uint64
	valid     []bool
	dirty     []bool
	stamp     []uint64
	clock     uint64

	hits, misses, writebacks int64
}

func newRefL1(sizeBytes, ways, blockBytes int) *refL1 {
	blocks := sizeBytes / blockBytes
	bb := uint(0)
	for 1<<bb < blockBytes {
		bb++
	}
	return &refL1{
		ways:      ways,
		blockBits: bb,
		setMask:   uint64(blocks/ways - 1),
		tags:      make([]uint64, blocks),
		valid:     make([]bool, blocks),
		dirty:     make([]bool, blocks),
		stamp:     make([]uint64, blocks),
	}
}

func (c *refL1) AccessRW(addr uint64, write bool) (hit bool, wbAddr uint64, wb bool) {
	c.clock++
	block := addr >> c.blockBits
	base := int(block&c.setMask) * c.ways
	victim := base
	oldest := ^uint64(0)
	for i := base; i < base+c.ways; i++ {
		if c.valid[i] && c.tags[i] == block {
			c.stamp[i] = c.clock
			if write {
				c.dirty[i] = true
			}
			c.hits++
			return true, 0, false
		}
		if !c.valid[i] {
			victim = i
			oldest = 0
		} else if c.stamp[i] < oldest {
			victim = i
			oldest = c.stamp[i]
		}
	}
	c.misses++
	if c.valid[victim] && c.dirty[victim] {
		wb = true
		wbAddr = c.tags[victim] << c.blockBits
		c.writebacks++
	}
	c.tags[victim] = block
	c.valid[victim] = true
	c.dirty[victim] = write
	c.stamp[victim] = c.clock
	return false, wbAddr, wb
}

func (c *refL1) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.dirty[i] = false
	}
	c.hits, c.misses, c.writebacks, c.clock = 0, 0, 0, 0
}

// TestL1MatchesStampLRU drives the compact L1 and the stamp-based
// reference with the same seeded read/write stream and requires the
// same (hit, wb, wbAddr) at every access and the same counters, across
// associativities up to maxWays, through Resets and through a
// mid-stream Snapshot restored into a freshly pre-warmed cache. Every
// line's valid bit, dirty bit and tag must match too, so both models
// fill the same way on every miss.
func TestL1MatchesStampLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16, maxWays} {
		t.Run(fmt.Sprintf("ways%d", ways), func(t *testing.T) {
			const sets, block = 8, 32
			size := sets * ways * block
			cfg := L1Config{SizeBytes: size, Ways: ways, BlockBytes: block}
			c := NewL1(cfg)
			ref := newRefL1(size, ways, block)
			r := rng.New(uint64(ways))
			// Block addresses span about twice the capacity, with a hot
			// quarter, so sets fill, hit, evict and write back.
			span := 2 * sets * ways
			const accesses = 40_000
			for k := 0; k < accesses; k++ {
				switch {
				case k == accesses/2:
					c = restoreIntoWarmed(t, c, cfg, r)
				case r.Intn(5000) == 0:
					c.Reset()
					ref.Reset()
				}
				b := r.Intn(span)
				if r.Intn(2) == 0 {
					b = r.Intn(span / 4)
				}
				addr := uint64(b)*block + uint64(r.Intn(block))
				write := r.Intn(3) == 0
				hit, wbAddr, wb := c.AccessRW(addr, write)
				rhit, rwbAddr, rwb := ref.AccessRW(addr, write)
				if hit != rhit || wb != rwb || wbAddr != rwbAddr {
					t.Fatalf("access %d (%#x, write=%v): got (hit=%v wb=%v %#x), reference (hit=%v wb=%v %#x)",
						k, addr, write, hit, wb, wbAddr, rhit, rwb, rwbAddr)
				}
				if k%997 == 0 {
					sameLines(t, k, c, ref)
				}
			}
			sameLines(t, accesses, c, ref)
			if c.Hits() != ref.hits || c.Misses() != ref.misses || c.Writebacks() != ref.writebacks {
				t.Errorf("counters hits/misses/writebacks = %d/%d/%d, reference %d/%d/%d",
					c.Hits(), c.Misses(), c.Writebacks(), ref.hits, ref.misses, ref.writebacks)
			}
			if ref.writebacks == 0 || ref.hits == 0 || ref.misses == 0 {
				t.Errorf("stream too tame: hits/misses/writebacks = %d/%d/%d",
					ref.hits, ref.misses, ref.writebacks)
			}
		})
	}
}

// sameLines fails unless c and ref hold the same lines in the same ways.
func sameLines(t *testing.T, k int, c *L1, ref *refL1) {
	t.Helper()
	for i, m := range c.meta {
		valid, dirty := m&metaValid != 0, m&metaDirty != 0
		if valid != ref.valid[i] || (valid && (dirty != ref.dirty[i] || c.tags[i] != ref.tags[i])) {
			t.Fatalf("after access %d, line %d: valid=%v dirty=%v tag=%#x, reference valid=%v dirty=%v tag=%#x",
				k, i, valid, dirty, c.tags[i], ref.valid[i], ref.dirty[i], ref.tags[i])
		}
	}
}

// restoreIntoWarmed snapshots c and restores it into a new cache of the
// same geometry that was first pre-warmed with unrelated lines, the way
// sim.Restore overlays a blob onto a freshly built simulation.
func restoreIntoWarmed(t *testing.T, c *L1, cfg L1Config, r *rng.Source) *L1 {
	t.Helper()
	w := snap.NewWriter()
	c.Snapshot(w)
	fresh := NewL1(cfg)
	for i := 0; i < 3*fresh.Sets()*fresh.Ways(); i++ {
		fresh.Warm(uint64(r.Intn(1<<16)) * 32)
	}
	rd, err := snap.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fresh.Restore(rd)
	if rd.Err() != nil || rd.Rest() != 0 {
		t.Fatalf("restore: err %v, %d bytes left", rd.Err(), rd.Rest())
	}
	return fresh
}

func TestL1PanicsBeyondRankField(t *testing.T) {
	NewL1(L1Config{SizeBytes: maxWays * 32, Ways: maxWays, BlockBytes: 32}) // fits
	defer func() {
		if recover() == nil {
			t.Fatalf("%d ways did not panic", 2*maxWays)
		}
	}()
	NewL1(L1Config{SizeBytes: 2 * maxWays * 32, Ways: 2 * maxWays, BlockBytes: 32})
}
