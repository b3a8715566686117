package core

import (
	"reflect"
	"sync"
	"sync/atomic"

	"histwalk/internal/access"
	"histwalk/internal/graph"
)

// strataTable is GNRW's stratum table for one grouper. It memoizes the
// stratum of every node resolved as a neighbor, and the stratum profile
// of every node whose neighbor list was resolved. Over a static network
// both are pure functions of (node, grouper), never of walk history, so
// one table can serve every chain of a session (see ShareStrata): the
// first chain to step along an edge into a node resolves the node's
// profile once, and every later init at that node — another chain, or
// another in-edge of the same chain — reads the published profile.
//
// The table is safe for concurrent use. Two chains racing on one
// unresolved node both resolve it and publish identical values, so
// either copy may win. The memo is read once per neighbor of every
// resolved node, at scattered IDs, so it is a radix tree of dense
// 4-byte entries over the node ID: lock-free reads, pages allocated on
// first touch (under mu), so memory follows the nodes touched, not |V|.
// Profiles are read once per newly traversed edge and exist only for
// visited nodes, so a map holds them.
type strataTable struct {
	grouper  Grouper
	mu       sync.Mutex
	root     strataDir[strataDir[strataDir[strataLeaf]]]
	profiles sync.Map // graph.Node → *stratumProfile
}

// The radix tree splits a non-negative int32 node ID into three
// directory indices and a leaf index. Small directories keep an
// unshared table cheap: a walk over a 12k-node graph touches one of
// each level plus the leaves.
const (
	strataLeafBits = 10
	strataDirBits  = 7 // 3·7 + 10 = 31
)

type (
	strataDir[T any] [1 << strataDirBits]atomic.Pointer[T]
	// strataLeaf holds 1 + the stratum of each of 1<<strataLeafBits
	// consecutive nodes as a neighbor; 0 until resolved.
	strataLeaf [1 << strataLeafBits]atomic.Int32
)

// stratumProfile is a node's resolved stratum assignment: the stratum
// of each neighbor in list order, and the member count of each stratum.
// It is immutable once published.
type stratumProfile struct {
	gids []int32
	base []int32
}

func newStrataTable(g Grouper) *strataTable { return &strataTable{grouper: g} }

// memo returns node n's memo entry, allocating its pages on first
// touch. It returns nil for IDs outside the non-negative int32 range,
// which are then resolved without memoization.
func (t *strataTable) memo(n graph.Node) *atomic.Int32 {
	if uint64(n)>>31 == 0 {
		if d2 := t.root[n>>(strataLeafBits+2*strataDirBits)].Load(); d2 != nil {
			if d3 := d2[n>>(strataLeafBits+strataDirBits)&(1<<strataDirBits-1)].Load(); d3 != nil {
				if leaf := d3[n>>strataLeafBits&(1<<strataDirBits-1)].Load(); leaf != nil {
					return &leaf[n&(1<<strataLeafBits-1)]
				}
			}
		}
	}
	return t.grow(n)
}

// grow is memo's slow path: it allocates n's pages under mu.
func (t *strataTable) grow(n graph.Node) *atomic.Int32 {
	if uint64(n)>>31 != 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d2 := child(&t.root[n>>(strataLeafBits+2*strataDirBits)])
	d3 := child(&d2[n>>(strataLeafBits+strataDirBits)&(1<<strataDirBits-1)])
	leaf := child(&d3[n>>strataLeafBits&(1<<strataDirBits-1)])
	return &leaf[n&(1<<strataLeafBits-1)]
}

// child returns the page p points to, allocating it if absent. The
// caller holds the table's mu.
func child[T any](p *atomic.Pointer[T]) *T {
	c := p.Load()
	if c == nil {
		c = new(T)
		p.Store(c)
	}
	return c
}

// profile returns the stratum profile of node v, whose neighbor list
// (as c serves it) is ns, resolving and publishing it on first use. A
// published profile of another length is stale (the list changed,
// which cannot happen over a static network) and is replaced.
func (t *strataTable) profile(c access.Client, v graph.Node, ns []graph.Node) (*stratumProfile, error) {
	if p, ok := t.profiles.Load(v); ok && len(p.(*stratumProfile).gids) == len(ns) {
		return p.(*stratumProfile), nil
	}
	p := &stratumProfile{gids: make([]int32, len(ns)), base: make([]int32, 0, min(t.grouper.NumGroups(), len(ns)))}
	for i, n := range ns {
		gid, err := t.stratumOf(c, v, n)
		if err != nil {
			return nil, err
		}
		p.gids[i] = gid
		for int(gid) >= len(p.base) {
			p.base = append(p.base, 0)
		}
		p.base[gid]++
	}
	t.profiles.Store(v, p)
	return p, nil
}

// stratumOf returns the stratum of neighbor n of owner, memoized per n:
// grouper assignments are deterministic, so one resolution serves
// every owner.
func (t *strataTable) stratumOf(c access.Client, owner, n graph.Node) (int32, error) {
	m := t.memo(n)
	if m != nil {
		if g := m.Load(); g > 0 {
			return g - 1, nil
		}
	}
	gid, err := t.grouper.GroupOf(c, owner, n)
	if err != nil {
		return 0, err
	}
	if m != nil {
		m.Store(int32(gid) + 1)
	}
	return int32(gid), nil
}

// ShareStrata wires the GNRW walkers among ws to one stratum table per
// grouper: walkers whose groupers are equal (same type and parameters,
// compared with ==) share a table, and walkers of any other kind, or
// with a non-comparable grouper, keep their own. Sharing changes no
// trajectory and no query cost — it removes only the resolutions every
// chain would otherwise repeat — provided every walker's client serves
// the same static network, as the per-chain clients over one graph or
// store do. Call it before the walkers step.
func ShareStrata(ws []Walker) {
	var tables map[Grouper]*strataTable
	for _, w := range ws {
		g, ok := w.(*GNRW)
		if !ok || g.grouper == nil || !reflect.TypeOf(g.grouper).Comparable() {
			continue
		}
		t := tables[g.grouper]
		if t == nil {
			if tables == nil {
				tables = make(map[Grouper]*strataTable)
			}
			t = newStrataTable(g.grouper)
			tables[g.grouper] = t
		}
		g.strata = t
	}
}
