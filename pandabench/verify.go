package main

import (
	"math"
	"math/rand"
	"sync"

	"panda"
	"panda/internal/geom"
)

// sameNeighbors reports whether got matches want bit for bit: the same
// length, and at every position the same id and the same Dist2 bits.
func sameNeighbors(got, want []panda.Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float32bits(got[i].Dist2) != math.Float32bits(want[i].Dist2) {
			return false
		}
	}
	return true
}

// knnMatches reports whether got is a correct answer to the k-nearest
// query q over pts (ids are the point indices), given the reference answer
// want. Dist2 must match bit for bit at every position, and the ids too,
// except among the neighbours tied at the k-th distance: which of several
// exactly tied candidates a search keeps is scan-order dependent (see
// internal/knnheap and the cluster routing in internal/server), so there
// each id must lie at its reported distance and appear only once.
func knnMatches(got, want []panda.Neighbor, k int, q []float32, pts geom.Points) bool {
	if len(got) != len(want) {
		return false
	}
	tail := len(want) // first position of the tie at the k-th distance
	if len(want) == k {
		kth := math.Float32bits(want[k-1].Dist2)
		for tail > 0 && math.Float32bits(want[tail-1].Dist2) == kth {
			tail--
		}
	}
	for i := range got {
		d := math.Float32bits(got[i].Dist2)
		if d != math.Float32bits(want[i].Dist2) {
			return false
		}
		if i < tail {
			if got[i].ID != want[i].ID {
				return false
			}
			continue
		}
		id := got[i].ID
		if id < 0 || id >= int64(pts.Len()) || math.Float32bits(geom.Dist2(q, pts.At(int(id)))) != d {
			return false
		}
		for _, prev := range got[tail:i] { // ids before the tie lie closer
			if prev.ID == id {
				return false
			}
		}
	}
	return true
}

// query is one entry of a serving workload's query catalogue.
type query struct {
	point []float32
	k     int     // 0 for a radius query
	r2    float32 // radius queries only
}

// Traffic mix of serve-mixed and cluster4: the mix behind the ROADMAP's
// serving baseline.
const (
	catalogueSize = 16384
	hotSetSize    = 64
	hotFrac       = 0.2
	radiusFrac    = 0.1
	radiusR2      = 0.01
	k8Frac        = 0.7 // of the KNN queries; the rest use k=32
)

// catalogue is the finite set of queries a serving run draws from, with
// the reference answer of each, so that every response can be checked
// without recomputing it on the measured path.
type catalogue struct {
	pts      geom.Points // the served points; ids are their indices
	queries  []query
	expected [][]panda.Neighbor
}

// newCatalogue draws queries against pts from rng: hotFrac of them repeat
// one of a small hot set of points, the rest are fresh uniform points in
// the unit cube.
func newCatalogue(rng *rand.Rand, pts geom.Points) *catalogue {
	point := func() []float32 {
		p := make([]float32, pts.Dims)
		for i := range p {
			p[i] = rng.Float32()
		}
		return p
	}
	hot := make([][]float32, hotSetSize)
	for i := range hot {
		hot[i] = point()
	}
	c := &catalogue{pts: pts, queries: make([]query, catalogueSize)}
	for i := range c.queries {
		q := &c.queries[i]
		if rng.Float64() < hotFrac {
			q.point = hot[rng.Intn(len(hot))]
		} else {
			q.point = point()
		}
		switch {
		case rng.Float64() < radiusFrac:
			q.r2 = radiusR2
		case rng.Float64() < k8Frac:
			q.k = 8
		default:
			q.k = 32
		}
	}
	return c
}

// answer fills in the reference answers from ref, in parallel.
func (c *catalogue) answer(ref *panda.Tree, workers int) {
	c.expected = make([][]panda.Neighbor, len(c.queries))
	parallelFor(len(c.queries), workers, func(i int) {
		q := c.queries[i]
		if q.k > 0 {
			c.expected[i] = ref.KNN(q.point, q.k)
		} else {
			c.expected[i] = ref.RadiusSearch(q.point, q.r2)
		}
	})
}

// matches reports whether got is a correct answer to catalogue query ci:
// radius answers bit for bit, KNN answers by knnMatches.
func (c *catalogue) matches(ci int, got []panda.Neighbor) bool {
	q := c.queries[ci]
	if q.k == 0 {
		return sameNeighbors(got, c.expected[ci])
	}
	return knnMatches(got, c.expected[ci], q.k, q.point, c.pts)
}

// pointsByKind splits the catalogue's points into KNN and radius queries.
func (c *catalogue) pointsByKind() (knn, radius [][]float32) {
	for _, q := range c.queries {
		if q.k > 0 {
			knn = append(knn, q.point)
		} else {
			radius = append(radius, q.point)
		}
	}
	return knn, radius
}

// parallelFor runs fn(0..n-1) on workers goroutines and waits for them.
func parallelFor(n, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
