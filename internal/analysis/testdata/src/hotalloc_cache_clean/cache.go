// Package cache is the passing hotalloc fixture for internal/cache: the
// L1 lookups do index arithmetic over arrays sized at construction, and
// only a fatal path formats a message.
package cache

import "fmt"

type L1 struct {
	ways int
	tags []uint64
	meta []uint8
}

func NewL1(lines, ways int) *L1 {
	if ways > 64 {
		panic(fmt.Sprintf("cache: %d ways", ways))
	}
	return &L1{ways: ways, tags: make([]uint64, lines), meta: make([]uint8, lines)}
}

func (c *L1) Access(addr uint64) bool {
	hit, _, _ := c.AccessRW(addr, false)
	return hit
}

func (c *L1) AccessRW(addr uint64, write bool) (bool, uint64, bool) {
	base := int(addr) % len(c.tags) / c.ways * c.ways
	set := c.meta[base : base+c.ways]
	for i, m := range set {
		if m&1 != 0 && c.tags[base+i] == addr {
			promote(set, m&^3)
			return true, 0, false
		}
	}
	if len(set) == 0 {
		panic(fmt.Sprintf("cache: empty set at %#x", addr))
	}
	promote(set, ^uint8(0))
	c.tags[base] = addr
	set[0] = 1
	return false, 0, write
}

func promote(set []uint8, bound uint8) {
	for i, m := range set {
		if m&1 != 0 && m < bound {
			set[i] = m + 4
		}
	}
}

func (c *L1) Probe(addr uint64) bool {
	base := int(addr) % len(c.tags) / c.ways * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.meta[i]&1 != 0 && c.tags[i] == addr {
			return true
		}
	}
	return false
}
