package search

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Sample mode: Walks independent uniformly-random schedules, each driven
// on its own fresh Execution by its own deterministically-derived
// generator. The whole sample — every walk's schedule and cost — is a
// pure function of (Config, Seed), and every aggregate is computed over
// the indexed walk outcomes, so the Result is identical for any worker
// count and the Seed echoed in it reproduces every number.

// walkSeed derives walk i's generator seed from the base seed
// (splitmix64 finalizer, so adjacent walk indices land far apart).
func walkSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// walkOut is one walk's outcome.
type walkOut struct {
	cost      int
	path      []int
	truncated bool
	depth     int
}

// runWalk drives one random walk to a maximal history (or the depth
// bound) and prices it.
func runWalk(cfg Config, i int) (walkOut, error) {
	rng := rand.New(rand.NewSource(walkSeed(cfg.Seed, i)))
	rep, err := drive(cfg, func(_, n int) int { return rng.Intn(n) })
	if err != nil {
		return walkOut{}, err
	}
	return walkOut{
		cost:      rep.Cost.Total,
		path:      rep.Path,
		truncated: rep.Truncated,
		depth:     len(rep.Path),
	}, nil
}

// runSample performs the Monte Carlo search on cfg.Workers workers.
func runSample(cfg Config) (*Result, error) {
	outs := make([]walkOut, cfg.Walks)
	errs := make([]error, cfg.Walks)
	workers := cfg.Workers
	if workers > cfg.Walks {
		workers = cfg.Walks
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Walks {
					return
				}
				outs[i], errs[i] = runWalk(cfg, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{
		Mode:    ModeSample,
		Model:   cfg.Model.Name(),
		Workers: cfg.Workers,
		Seed:    cfg.Seed,
		Walks:   cfg.Walks,
		Paths:   cfg.Walks,
	}
	sum := 0
	costs := make([]int, cfg.Walks)
	for i, o := range outs {
		costs[i] = o.cost
		sum += o.cost
		if o.truncated {
			res.Truncated++
		}
		if o.depth > res.MaxDepthReached {
			res.MaxDepthReached = o.depth
		}
		if i == 0 || o.cost > res.WorstCost {
			res.WorstCost = o.cost
			res.Witness = o.path
		} else if o.cost == res.WorstCost && slices.Compare(o.path, res.Witness) < 0 {
			res.Witness = o.path
		}
	}
	res.MeanCost = float64(sum) / float64(cfg.Walks)
	sort.Ints(costs)
	res.Q = &Quantiles{
		P50: quantile(costs, 50),
		P90: quantile(costs, 90),
		P99: quantile(costs, 99),
	}
	return res, nil
}

// quantile returns the nearest-rank p-th percentile of sorted costs.
func quantile(sorted []int, p int) int {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
