package core

import "fmt"

// grow returns s resized to n, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// CumTable is a Fenwick-tree cumulative weight table over integer
// weights. Find(x) returns the smallest index whose cumulative weight
// exceeds x — i.e. the owner of the x-th unit of mass in ascending
// index order, exactly what a linear scan over the weights selects for
// the same x. Because the mapping is identical, a CumTable can replace
// a linear weighted scan on a replay-compatible path without changing
// a single trajectory; it turns the O(n) scan into O(log n) and a
// single-index re-weight into an O(log n) update.
type CumTable struct {
	tree []int64 // 1-based Fenwick partial sums
	n    int
}

// NewCumTable builds a cumulative table over weights (each >= 0).
func NewCumTable(weights []int) (*CumTable, error) {
	t := &CumTable{}
	if err := t.Rebuild(weights); err != nil {
		return nil, err
	}
	return t, nil
}

// Rebuild re-initializes the table over weights, reusing the backing
// array (allocation-free once capacity suffices).
func (t *CumTable) Rebuild(weights []int) error {
	n := len(weights)
	if n == 0 {
		return fmt.Errorf("core: cumulative table needs at least one weight")
	}
	t.n = n
	t.tree = grow(t.tree, n+1)
	for i := range t.tree {
		t.tree[i] = 0
	}
	// O(n) Fenwick construction: seed leaves, push partial sums up.
	for i, w := range weights {
		if w < 0 {
			return fmt.Errorf("core: cumulative table weight %d is negative (%d)", i, w)
		}
		t.tree[i+1] += int64(w)
		if p := i + 1 + ((i + 1) & -(i + 1)); p <= n {
			t.tree[p] += t.tree[i+1]
		}
	}
	return nil
}

// Len returns the number of outcomes.
func (t *CumTable) Len() int { return t.n }

// Total returns the sum of all weights.
func (t *CumTable) Total() int64 {
	var sum int64
	for i := t.n; i > 0; i -= i & -i {
		sum += t.tree[i]
	}
	return sum
}

// Get returns the current weight of index i.
func (t *CumTable) Get(i int) int64 {
	w := t.tree[i+1]
	// Subtract the children folded into node i+1.
	for j := i; j > i+1-((i+1)&-(i+1)); j -= j & -j {
		w -= t.tree[j]
	}
	return w
}

// Set updates index i's weight in O(log n).
func (t *CumTable) Set(i, w int) {
	delta := int64(w) - t.Get(i)
	for j := i + 1; j <= t.n; j += j & -j {
		t.tree[j] += delta
	}
}

// Find returns the smallest index whose cumulative weight strictly
// exceeds x (0 <= x < Total()): the same index the linear scan
//
//	for i, w := range weights { if x < w { return i }; x -= w }
//
// selects. Zero-weight indices are never returned.
func (t *CumTable) Find(x int64) int {
	idx := 0
	// Highest power of two <= n.
	step := 1
	for step<<1 <= t.n {
		step <<= 1
	}
	for ; step > 0; step >>= 1 {
		if next := idx + step; next <= t.n && t.tree[next] <= x {
			idx = next
			x -= t.tree[next]
		}
	}
	return idx // 0-based: idx counts fully-skipped leaves
}
