package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"panda"
	"panda/internal/baselines"
	"panda/internal/geom"
)

// batch-cosmo3d: the paper's offline workload, in process. The 24 MB of
// coordinates exceed the L2 cache, and the server, proto, client and
// cluster layers are bypassed, so serving changes must read "no change"
// here.
const (
	batchPoints   = 2_000_000
	batchK        = 8
	batchQueries  = 1 << 18 // self-queries sampled from the points
	bulkChunk     = 1 << 16 // queries per KNNBatchFlat call, throughput phase
	jobSize       = 16      // queries per KNNBatchFlat call, open-loop phases
	batchLowRate  = 2000    // jobs per second
	batchHighRate = 5000
	buildReps     = 5
	bruteSample   = 64
)

func runBatch(b *bench) error {
	coords, dims, _, err := panda.GenerateDataset("cosmo", batchPoints, b.seed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(b.seed)))
	queries := make([]float32, 0, batchQueries*dims)
	for i := 0; i < batchQueries; i++ {
		p := rng.Intn(batchPoints)
		queries = append(queries, coords[p*dims:(p+1)*dims]...)
	}

	// setup_s: the Build wall time, median of buildReps builds.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapBefore := ms.HeapAlloc
	var tree *panda.Tree
	var builds []float64
	for rep := 0; rep < buildReps; rep++ {
		tree = nil
		runtime.GC()
		t0 := time.Now()
		tree, err = panda.Build(coords, dims, nil, &panda.BuildOptions{Threads: b.nproc})
		if err != nil {
			return err
		}
		builds = append(builds, b.tr.since(spBuild, t0).Seconds())
	}
	b.e2e["setup_s"] = median(builds)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.e2e["mem_mb"] = float64(ms.HeapAlloc-heapBefore) / (1 << 20)

	// Reference answers: one full pass, spot-checked against a brute-force
	// scan; every later answer, from the same tree, must match it bit for
	// bit.
	ref, refOff, err := tree.KNNBatchFlat(queries, batchK)
	if err != nil {
		return err
	}
	refOf := func(q int) []panda.Neighbor { return ref[refOff[q]:refOff[q+1]] }
	pts := geom.FromCoords(coords, dims)
	var bad [bruteSample]bool
	parallelFor(bruteSample, b.nproc, func(i int) {
		qi := i * (batchQueries / bruteSample)
		q := queries[qi*dims : (qi+1)*dims]
		bad[i] = !knnMatches(refOf(qi), baselines.BruteKNN(pts, nil, q, batchK), batchK, q, pts)
	})
	for _, wrong := range bad {
		if wrong {
			b.counts.add(stWrong)
		} else {
			b.counts.add(stOK)
		}
	}
	check := func(first int, flat []panda.Neighbor, off []int32) status {
		for i := 0; i+1 < len(off); i++ {
			if !sameNeighbors(flat[off[i]:off[i+1]], refOf(first+i)) {
				return stWrong
			}
		}
		return stOK
	}

	// The phases reuse one result buffer (KNNBatchFlatInto is KNNBatchFlat
	// with caller-owned storage), so that no garbage collection runs while
	// they are measured.
	var flat []panda.Neighbor
	var off []int32

	// Throughput: back-to-back bulk calls, each parallel over nproc
	// threads; the best of the calls' query rates (see summarize for why
	// the best).
	bulk := func(tr *tracer) (qps float64, err error) {
		var t tally
		var rates []float64
		var busy time.Duration
		deadline := time.Now().Add(b.phaseDur("sat"))
		for c := 0; c == 0 || time.Now().Before(deadline); c++ {
			first := (c % (batchQueries / bulkChunk)) * bulkChunk
			t0 := time.Now()
			flat, off, err = tree.KNNBatchFlatInto(queries[first*dims:(first+bulkChunk)*dims], batchK, flat, off)
			t1 := time.Now()
			tr.add(spKNNBatchFlat, t0, t1, -1, int64(c))
			if err != nil {
				return 0, err
			}
			busy += t1.Sub(t0)
			rates = append(rates, bulkChunk/t1.Sub(t0).Seconds())
			t.add(check(first, flat, off))
		}
		b.addCounts(t, bulkChunk)
		if tr != nil { // not the untraced repeat below
			b.setSatLayers(int64(len(rates)), t.ok*bulkChunk, busy, rates)
		}
		return slices.Max(rates), nil
	}
	qps, err := bulk(b.tr)
	if err != nil {
		return err
	}
	b.e2e["throughput_qps"] = qps

	// Open loop: KNN jobs of jobSize self-queries arriving as a Poisson
	// process and served in arrival order, each by one KNNBatchFlat call.
	// A job this small is one work chunk, which the engine runs on the
	// calling goroutine: the small-batch path the serving dispatcher takes.
	// jobBusy sums the service time of the jobs, for the engine's
	// utilisation at each rate.
	var jobBusy time.Duration
	var jobs int
	job := func(tr *tracer, seq int, first int) status {
		t0 := time.Now()
		flat, off, err = tree.KNNBatchFlatInto(queries[first*dims:(first+jobSize)*dims], batchK, flat, off)
		t1 := time.Now()
		tr.add(spKNNBatchFlat, t0, t1, -1, int64(seq))
		jobBusy += t1.Sub(t0)
		jobs++
		if err != nil {
			return stError
		}
		return check(first, flat, off)
	}
	openPhase := func(tr *tracer, name string, rate float64, phaseSeed int64) openSummary {
		prng := rand.New(rand.NewSource(int64(b.seed)*31 + phaseSeed))
		offsets := poissonSchedule(prng, rate, b.phaseDur(name))
		firsts := make([]int, len(offsets))
		for i := range firsts {
			firsts[i] = prng.Intn(batchQueries/jobSize) * jobSize
		}
		busy0 := jobBusy
		samples := fifoLoop(offsets, func(i int) status { return job(tr, i, firsts[i]) })
		s := summarize(samples, offsets, rate, batchWindowSamples)
		b.addCounts(s.tally, jobSize)
		fmt.Fprintf(os.Stderr, "  %-4s %6d jobs at %.0f/s: p50 %.1f µs, p99 %.1f µs, engine busy %.0f%%, generator late p99 %.1f µs\n",
			name, len(samples), rate, s.p50, s.p99, (jobBusy-busy0).Seconds()/b.phaseDur(name).Seconds()*100, s.latePct99)
		b.setOpenLayers(name, s, len(samples))
		return s
	}
	low := openPhase(b.tr, "low", batchLowRate, 1)
	high := openPhase(b.tr, "high", batchHighRate, 2)
	b.setLayer("panda.job_us", us(jobBusy)/float64(jobs))
	b.e2e["p50_us.low"], b.e2e["p99_us.low"] = low.p50, low.p99
	b.e2e["p50_us.high"], b.e2e["p99_us.high"] = high.p50, high.p99
	fmt.Fprintf(os.Stderr, "  throughput: %.0f queries/s; builds %v s\n", qps, builds)

	if b.tr == nil {
		return nil
	}
	// Tracing overhead: the throughput phase again, untraced.
	untraced, err := bulk(nil)
	if err != nil {
		return err
	}
	b.setLayer("trace.overhead_pct", (untraced-qps)/untraced*100)
	return batchProbes(b, tree, coords, dims, queries, median(builds), untraced)
}

// addCounts adds a phase's outcomes, each call standing for per queries.
func (b *bench) addCounts(t tally, per int64) {
	b.counts.ok += t.ok * per
	b.counts.wrong += t.wrong * per
	b.counts.refused += t.refused * per
	b.counts.errs += t.errs * per
}
