package engine

// The per-trial vocabulary shared by the session layer and the
// experiment harness: how a walk's spend is metered (CostModel), which
// estimator design a walker needs (DesignFor) and how a trial draws its
// start node (RandomStart).

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"histwalk/internal/estimate"
	"histwalk/internal/graph"
)

// CostModel selects how a walk's spend is metered against the budget.
type CostModel int

const (
	// CostUnique counts unique neighborhood queries: repeat visits are
	// served from the crawler's cache for free. This is the paper's
	// §2.3 definition and the default.
	CostUnique CostModel = iota
	// CostSteps counts every transition as one query (no cache). The
	// paper's small-graph figures (7, 10, 11) use budgets exceeding the
	// graph's node count, which is only meaningful under this model, so
	// the corresponding runners select it.
	CostSteps
)

// String implements fmt.Stringer.
func (m CostModel) String() string {
	switch m {
	case CostUnique:
		return "unique-queries"
	case CostSteps:
		return "steps"
	default:
		return fmt.Sprintf("CostModel(%d)", int(m))
	}
}

// DesignFor returns the estimator design matching a walker: MHRW targets
// the uniform distribution, every other algorithm in this repository is
// degree-proportional.
func DesignFor(factoryName string) estimate.Design {
	if strings.HasPrefix(factoryName, "MHRW") {
		return estimate.Uniform
	}
	return estimate.DegreeProportional
}

// RandomStart draws a uniform non-isolated start node.
func RandomStart(g *graph.Graph, rng *rand.Rand) (graph.Node, error) {
	n := g.NumNodes()
	if n == 0 {
		return 0, errors.New("engine: empty graph")
	}
	for tries := 0; tries < 10*n+100; tries++ {
		v := graph.Node(rng.Intn(n))
		if g.Degree(v) > 0 {
			return v, nil
		}
	}
	return 0, errors.New("engine: no node with degree >= 1")
}
