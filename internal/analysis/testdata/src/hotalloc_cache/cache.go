// Package cache is the failing hotalloc fixture for internal/cache: an
// L1 whose per-access lookups reach allocating constructs.
package cache

import "fmt"

type L1 struct {
	ways    int
	tags    []uint64
	meta    []uint8
	history []uint64
}

// NewL1 is construction time: allocation is fine here.
func NewL1(lines, ways int) *L1 {
	return &L1{ways: ways, tags: make([]uint64, lines), meta: make([]uint8, lines)}
}

// Access is a hot root through AccessRW.
func (c *L1) Access(addr uint64) bool {
	hit, _, _ := c.AccessRW(addr, false)
	return hit
}

// AccessRW is a hot root; the helpers it calls are hot too.
func (c *L1) AccessRW(addr uint64, write bool) (bool, uint64, bool) {
	c.history = append(c.history, addr) // want "append in hot function AccessRW"
	base := int(addr) % len(c.tags) / c.ways * c.ways
	c.promote(c.meta[base : base+c.ways])
	return false, 0, write
}

func (c *L1) promote(set []uint8) {
	order := make([]int, len(set)) // want "make allocates in hot function promote"
	_ = order
}

// Probe is a hot root.
func (c *L1) Probe(addr uint64) bool {
	trace(addr) // want "argument boxes into an interface parameter in hot function Probe"
	return false
}

func trace(v any) { _ = v }

// Stats is not reachable from a hot root: allocation is fine here.
func (c *L1) Stats() string { return fmt.Sprint([]int{len(c.tags)}) }
