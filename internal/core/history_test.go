package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"histwalk/internal/access"
	"histwalk/internal/dataset"
)

// circBytes is the capacity of a circulation table's slices.
func circBytes(t *circTable) int {
	return cap(t.segs)*int(unsafe.Sizeof(circSeg{})) + cap(t.bits)*8
}

// gnrwEdgeBytes is the capacity of a GNRW walker's per-edge state:
// everything but the history map and the stratum table.
func gnrwEdgeBytes(w *GNRW) int {
	return cap(w.edges)*int(unsafe.Sizeof(gnrwEdge{})) + circBytes(&w.circ) +
		cap(w.remaining)*4 + cap(w.round)
}

// strataBytes is the memory a stratum table holds: its root, the memo
// pages touched so far and the published profiles (map overhead
// excluded).
func strataBytes(t *strataTable) int {
	n := int(unsafe.Sizeof(*t))
	for i := range t.root {
		d2 := t.root[i].Load()
		if d2 == nil {
			continue
		}
		n += int(unsafe.Sizeof(*d2))
		for j := range d2 {
			d3 := d2[j].Load()
			if d3 == nil {
				continue
			}
			n += int(unsafe.Sizeof(*d3))
			for k := range d3 {
				if leaf := d3[k].Load(); leaf != nil {
					n += int(unsafe.Sizeof(*leaf))
				}
			}
		}
	}
	t.profiles.Range(func(_, v any) bool {
		p := v.(*stratumProfile)
		n += int(unsafe.Sizeof(*p)) + 4*(cap(p.gids)+cap(p.base))
		return true
	})
	return n
}

// TestHistoryBytes pins the history a budget-1000 chain keeps on the
// svc graph (GooglePlusN(20000, 1), average degree ~82). CNRW keeps
// b(u,v) as ⌈k_v/64⌉ words per traversed edge, and GNRW's per-edge
// state adds only per-stratum counts and round flags: neither copies
// N(v). The ceilings are a tenth of what the earlier layouts held on
// the same walks (a copy of N(v) per edge: 0.90–1.91 MB for CNRW and
// 2.2–3.2 MB for GNRW's edge state, slice capacities). The shared
// stratum table, which a Session's GNRW chains hold once, is logged.
func TestHistoryBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20000-node graph")
	}
	const budget = 1000
	const cnrwMax, gnrwMax = 90_000, 220_000
	g := dataset.GooglePlusN(20000, 1)
	for seed := int64(1); seed <= 4; seed++ {
		walk := func(w Walker, sim *access.Simulator) {
			for sim.QueryCost() < budget {
				if _, err := w.Step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		sim := access.NewSimulator(g)
		cn := NewCNRW(sim, 0, rand.New(rand.NewSource(seed)))
		walk(cn, sim)
		if b := circBytes(&cn.circ); b > cnrwMax {
			t.Errorf("seed %d: CNRW circulations hold %d B over %d edges, want <= %d", seed, b, cn.HistorySize(), cnrwMax)
		} else {
			t.Logf("seed %d: CNRW circulations %d B over %d edges", seed, b, cn.HistorySize())
		}

		sim = access.NewSimulator(g)
		gn := NewGNRW(sim, DegreeGrouper{M: 5}, 0, rand.New(rand.NewSource(seed)))
		walk(gn, sim)
		if b := gnrwEdgeBytes(gn); b > gnrwMax {
			t.Errorf("seed %d: GNRW edge state holds %d B over %d edges, want <= %d", seed, b, gn.HistorySize(), gnrwMax)
		} else {
			t.Logf("seed %d: GNRW edge state %d B over %d edges; stratum table %d B", seed, b, gn.HistorySize(), strataBytes(gn.strata))
		}
	}
}
