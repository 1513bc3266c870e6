package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"panda"
	"panda/internal/geom"
	"panda/internal/proto"
	"panda/internal/ptsio"
)

// serve-mixed and cluster4: the same points and traffic, served by one
// panda-serve warm-started from a snapshot, or by four cluster ranks
// cold-built over the loopback mesh, so the difference between the two
// isolates the cluster layers.
const (
	servePoints      = 200_000
	lowRate          = 1000 // queries per second, both workloads
	serveHighRate    = 10000
	clusterHighRate  = 5000
	satOutstanding   = 32                     // requests in flight per connection, saturation phase
	satWindowDur     = 250 * time.Millisecond // throughput is the best of these windows' rates
	clusterRanks     = 4
	serveSetupReps   = 9
	clusterSetupReps = 5
	warmup           = 500 * time.Millisecond
	maxOutstanding   = 8192
)

// serveRun is one run of a serving workload.
type serveRun struct {
	b        *bench
	cat      *catalogue
	sut      *sut
	clients  []*panda.Client
	errOnce  sync.Once
	firstErr error // first failed request, for the report
	nextReq  int64 // first request id of the next phase run
}

// reqIDs reserves n request ids for one phase run and returns the first.
func (r *serveRun) reqIDs(n int) int64 {
	base := r.nextReq
	r.nextReq += int64(n)
	return base
}

func runServe(b *bench, cluster bool) error {
	coords, dims, _, err := panda.GenerateDataset("uniform", servePoints, b.seed)
	if err != nil {
		return err
	}
	ref, err := panda.Build(coords, dims, nil, &panda.BuildOptions{Threads: b.nproc})
	if err != nil {
		return err
	}
	// The program receives only generated files: a PNDS snapshot to
	// warm-start from, or a .pnda point file to cold-build from.
	input := filepath.Join(b.work, "uniform.pnds")
	reps := serveSetupReps
	if cluster {
		input = filepath.Join(b.work, "uniform.pnda")
		reps = clusterSetupReps
		err = ptsio.Save(input, geom.FromCoords(coords, dims), nil)
	} else {
		err = ref.WriteSnapshot(input)
	}
	if err != nil {
		return err
	}
	cat := newCatalogue(rand.New(rand.NewSource(int64(b.seed))), geom.FromCoords(coords, dims))
	cat.answer(ref, b.nproc)

	// setup_s: spawn → every rank answers a handshake, median of reps starts.
	var setups []float64
	var s *sut
	for rep := 0; rep < reps; rep++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		if s, d, err = startSUT(b, cluster, input); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	defer s.stop()
	b.e2e["setup_s"] = median(setups)

	r := &serveRun{b: b, cat: cat, sut: s}
	for c := 0; c < b.nproc; c++ {
		cl, err := panda.Dial(s.addrs[c%len(s.addrs)])
		if err != nil {
			return err
		}
		defer cl.Close()
		r.clients = append(r.clients, cl)
	}
	if b.tr != nil {
		r.idleRTT()
	}

	high := float64(serveHighRate)
	if cluster {
		high = clusterHighRate
	}
	phases := make([]*phaseResult, 0, 3)
	for _, ph := range []struct {
		name string
		rate float64
	}{{"low", lowRate}, {"high", high}} {
		p, err := r.openPhase(ph.name, ph.rate, b.tr)
		if err != nil {
			return err
		}
		b.e2e["p50_us."+ph.name], b.e2e["p99_us."+ph.name] = p.open.p50, p.open.p99
		phases = append(phases, p)
	}
	sat, err := r.satPhase(b.tr)
	if err != nil {
		return err
	}
	phases = append(phases, sat)
	b.e2e["throughput_qps"] = sat.qps

	mem := 0.0
	for _, p := range s.procs {
		mb, err := procPeakRSS(p.Process.Pid)
		if err != nil {
			return err
		}
		mem += mb
	}
	b.e2e["mem_mb"] = mem
	for _, p := range phases[:2] {
		fmt.Fprintf(os.Stderr, "  %-4s %6d sent at %.0f/s: p50 %.1f µs, p99 %.1f µs, generator late p99 %.1f µs\n",
			p.name, p.sent, p.rate, p.open.p50, p.open.p99, p.open.latePct99)
	}
	fmt.Fprintf(os.Stderr, "  sat  %6d sent: %.0f queries/s\n", sat.sent, sat.qps)
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "  first failure: %v\n", r.firstErr)
	}
	if b.tr == nil {
		return nil
	}

	for _, p := range phases {
		r.phaseLayers(p)
	}
	// Tracing overhead: the low phase again, untraced.
	untraced, err := r.openPhase("low", lowRate, nil)
	if err != nil {
		return err
	}
	b.setLayer("trace.overhead_pct", (phases[0].open.p50-untraced.open.p50)/untraced.open.p50*100)

	knnPts, radiusPts := cat.pointsByKind()
	kdtreeProbes(b, coords, dims, knnPts, radiusPts, radiusR2)
	if err := protoProbes(b, cat, dims); err != nil {
		return err
	}
	if cluster {
		if err := distributedBuildProbe(b, coords, dims, clusterRanks); err != nil {
			return err
		}
		r.waterfalls()
	} else if err := snapshotProbes(b, input); err != nil {
		return err
	}
	r.attribution(phases)
	return nil
}

// call sends catalogue query ci on cl and checks the answer.
// It records a client span under parent and, when rtt is non-nil, stores
// the call's duration there.
func (r *serveRun) call(cl *panda.Client, ci int, tr *tracer, parent int32, req int64, rtt *float64) status {
	q := &r.cat.queries[ci]
	start := time.Now()
	var res []panda.Neighbor
	var err error
	name := spClientKNN
	if q.k > 0 {
		res, err = cl.KNN(q.point, q.k)
	} else {
		name = spClientRadius
		res, err = cl.RadiusSearch(q.point, q.r2)
	}
	end := time.Now()
	tr.add(name, start, end, parent, req)
	if rtt != nil {
		*rtt = us(end.Sub(start))
	}
	switch {
	case err == nil && r.cat.matches(ci, res):
		return stOK
	case err == nil:
		r.noteErr(fmt.Errorf("query %d: answer differs from the reference tree", ci))
		return stWrong
	case panda.IsOverloaded(err):
		return stRefused
	default:
		r.noteErr(err)
		return stError
	}
}

func (r *serveRun) noteErr(err error) {
	r.errOnce.Do(func() { r.firstErr = err })
}

// phaseResult is what one measured phase produced.
type phaseResult struct {
	name string
	rate float64 // offered, open-loop phases
	sent int64
	open openSummary // open-loop phases
	qps  float64     // saturation phase: best window
	sat  struct {    // saturation phase, for its per-layer rates
		ok      int64
		elapsed time.Duration
		rates   []float64
	}
	rtts []float64 // µs per request, traced runs only
	d    deltas    // /metrics deltas summed over ranks
	cpu  time.Duration
}

// openPhase offers Poisson traffic at rate: an unmeasured warmup, then the
// measured window bracketed by /metrics scrapes of every rank.
func (r *serveRun) openPhase(name string, rate float64, tr *tracer) (*phaseResult, error) {
	b := r.b
	rng := rand.New(rand.NewSource(int64(b.seed)*31 + int64(rate)))
	run := func(d time.Duration, tr *tracer) ([]sample, []time.Duration, []float64) {
		offsets := poissonSchedule(rng, rate, d)
		picks := make([]int, len(offsets))
		for i := range picks {
			picks[i] = rng.Intn(len(r.cat.queries))
		}
		var rtts []float64
		if tr != nil {
			rtts = make([]float64, len(offsets))
		}
		base := r.reqIDs(len(offsets))
		samples := openLoop(offsets, maxOutstanding, func(i int, due time.Time) status {
			root := tr.reserve()
			var rtt *float64
			if rtts != nil {
				rtt = &rtts[i]
			}
			st := r.call(r.clients[i%len(r.clients)], picks[i], tr, root, base+int64(i), rtt)
			tr.set(root, spRequest, due, time.Now(), -1, base+int64(i))
			return st
		})
		return samples, offsets, rtts
	}
	warm, _, _ := run(warmup, nil)
	for _, x := range warm {
		b.counts.add(x.st)
	}

	p := &phaseResult{name: name, rate: rate}
	before, cpu0, err := r.snap()
	if err != nil {
		return nil, err
	}
	samples, offsets, rtts := run(b.phaseDur(name), tr)
	after, cpu1, err := r.snap()
	if err != nil {
		return nil, err
	}
	p.open, p.rtts = summarize(samples, offsets, rate, windowSamples), rtts
	p.sent = int64(len(samples))
	p.d, p.cpu = phaseDeltas(before, after), cpu1-cpu0
	b.counts.addAll(p.open.tally)
	return p, nil
}

// satPhase is the closed loop: satOutstanding requests outstanding on every
// connection, each sent as soon as the previous one on its worker returns.
func (r *serveRun) satPhase(tr *tracer) (*phaseResult, error) {
	b := r.b
	rng := rand.New(rand.NewSource(int64(b.seed)*31 + 3))
	picks := make([]int, 1<<16)
	for i := range picks {
		picks[i] = rng.Intn(len(r.cat.queries))
	}
	workers := len(r.clients) * satOutstanding
	rtts := make([][]float64, workers)
	run := func(d time.Duration, tr *tracer) (tally, []float64) {
		base := r.reqIDs(1 << 40)
		return closedLoop(workers, d, satWindowDur, func(w int, seq int64) status {
			var rtt float64
			st := r.call(r.clients[w%len(r.clients)], picks[seq%int64(len(picks))], tr, -1, base+seq, &rtt)
			if tr != nil {
				rtts[w] = append(rtts[w], rtt)
			}
			return st
		})
	}
	warm, _ := run(warmup, nil)
	b.counts.addAll(warm)

	p := &phaseResult{name: "sat"}
	before, cpu0, err := r.snap()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	t, rates := run(b.phaseDur("sat"), tr)
	elapsed := time.Since(t0)
	after, cpu1, err := r.snap()
	if err != nil {
		return nil, err
	}
	b.counts.addAll(t)
	p.sent = t.attempted()
	p.qps = slices.Max(rates)
	p.sat.ok, p.sat.elapsed, p.sat.rates = t.ok, elapsed, rates
	p.d, p.cpu = phaseDeltas(before, after), cpu1-cpu0
	for _, w := range rtts {
		p.rtts = append(p.rtts, w...)
	}
	return p, nil
}

// snap scrapes every rank and reads the processes' CPU time.
func (r *serveRun) snap() ([]exposition, time.Duration, error) {
	e, err := r.sut.scrapeAll()
	if err != nil {
		return nil, 0, err
	}
	cpu, err := r.sut.cpu()
	return e, cpu, err
}

// idleRTT measures the round trip of k=8 queries sent one at a time on an
// otherwise idle connection.
func (r *serveRun) idleRTT() {
	var rtts []float64
	for i := 0; i < 200; i++ {
		var rtt float64
		ci := i
		for r.cat.queries[ci%len(r.cat.queries)].k != 8 {
			ci++
		}
		r.b.counts.add(r.call(r.clients[0], ci%len(r.cat.queries), r.b.tr, -1, -1, &rtt))
		rtts = append(rtts, rtt)
	}
	r.b.setLayer("client.idle_rtt_us", median(rtts))
}

// phaseLayers derives the per-layer metrics of one phase from its /metrics
// deltas, the generator's own counts and the client spans. Client requests
// and cluster-internal legs both land in the rank histograms; the
// generator's sent count separates them.
func (r *serveRun) phaseLayers(p *phaseResult) {
	b, sfx, d := r.b, "."+p.name, p.d
	for _, st := range []string{"linger", "queue_wait", "engine", "response_write", "decode"} {
		v, ok := d.stageMeanUS(st)
		b.setLayerIf("server."+st+"_us"+sfx, v, ok)
	}
	e2e, okE2E := d.ratio("panda_request_latency_seconds_sum", "panda_request_latency_seconds_count", 1e6)
	b.setLayerIf("server.e2e_us"+sfx, e2e, okE2E)
	stages, okStages := 0.0, true
	for _, st := range proto.StageNames {
		if st == "decode" { // precedes the arrival stamp e2e starts from
			continue
		}
		v, ok := d.stageMeanUS(st)
		stages += v
		okStages = okStages && ok
	}
	b.setLayerIf("server.stage_gap_us"+sfx, e2e-stages, okE2E && okStages)
	v, ok := d.ratio("panda_queries_total", "panda_batches_total", 1)
	b.setLayerIf("server.batch_size"+sfx, v, ok)
	b.setLayer("server.cpu_ms_per_kq"+sfx, float64(p.cpu.Milliseconds())/(float64(p.sent)/1000))
	v, ok = d["panda_gc_pause_seconds_total"]
	b.setLayerIf("server.gc_pause_ms"+sfx, v*1000, ok)
	v, ok = d["panda_shed_total"]
	b.setLayerIf("server.shed"+sfx, v, ok)

	v, ok = d.stageMeanUS("remote_exchange")
	b.setLayerIf("cluster.remote_exchange_us"+sfx, v, ok)
	v, ok = d["panda_request_latency_seconds_count"]
	b.setLayerIf("cluster.peer_legs_per_query"+sfx, (v-float64(p.sent))/float64(p.sent), ok)
	for _, c := range []struct{ metric, series string }{
		{"cluster.peer_failures", "panda_peer_failures_total"},
		{"cluster.failovers", "panda_failovers_total"},
	} {
		v, ok := d[c.series]
		b.setLayerIf(c.metric, b.layer[c.metric]+v, ok)
	}

	if p.name == "sat" {
		b.setSatLayers(p.sent, p.sat.ok, p.sat.elapsed, p.sat.rates)
		return
	}
	b.setOpenLayers(p.name, p.open, int(p.sent))
	b.setLayer("client.rtt_p50_us"+sfx, percentile(p.rtts, 50))
	b.setLayer("client.rtt_p99_us"+sfx, percentile(p.rtts, 99))
	b.setLayerIf("client.wire_us"+sfx, mean(p.rtts)-e2e, okE2E)
}

// waterfalls prints the per-rank stage spans of a few traced cluster
// queries.
func (r *serveRun) waterfalls() {
	var sb strings.Builder
	sb.WriteString("KNNTraced waterfalls (stage@rank start+dur µs):\n")
	for i, shown := 0, 0; shown < 4 && i < len(r.cat.queries); i++ {
		q := r.cat.queries[i]
		if q.k == 0 {
			continue
		}
		shown++
		res, spans, err := r.clients[0].KNNTraced(q.point, q.k)
		st := stOK
		if err != nil {
			st = stError
		} else if !r.cat.matches(i, res) {
			st = stWrong
		}
		r.b.counts.add(st)
		fmt.Fprintf(&sb, "  query %d k=%d:", i, q.k)
		for _, s := range spans {
			fmt.Fprintf(&sb, " %s@%d %+.1f+%.1f", s.Stage, s.Rank, float64(s.Start)/1e3, float64(s.Dur)/1e3)
		}
		sb.WriteByte('\n')
	}
	r.b.reports = append(r.b.reports, sb.String())
}

// attribution prints, per phase, the kd-tree cost of the workload's query
// mix next to the dispatcher's engine and end-to-end stage means and the
// client's round trip, and checks that the stage means add up.
func (r *serveRun) attribution(phases []*phaseResult) {
	b := r.b
	var knn8, knn32, radius float64
	for _, q := range r.cat.queries {
		switch q.k {
		case 8:
			knn8++
		case 32:
			knn32++
		default:
			radius++
		}
	}
	n := float64(len(r.cat.queries))
	kd := (knn8*b.layer["kdtree.knn8_ns"] + knn32*b.layer["kdtree.knn32_ns"] + radius*b.layer["kdtree.radius_ns"]) / n
	var sb strings.Builder
	sb.WriteString("attribution (means per request; cluster ranks count internal legs too):\n")
	fmt.Fprintf(&sb, "  %-5s %14s %16s %14s %18s %14s\n", "phase", "kdtree ns/q", "server.engine_us", "server.e2e_us", "client.rtt_p50_us", "stage gap us")
	for _, p := range phases {
		fmt.Fprintf(&sb, "  %-5s %14.0f %16.1f %14.1f %18.1f %14.2f\n", p.name, kd,
			b.layer["server.engine_us."+p.name], b.layer["server.e2e_us."+p.name],
			percentile(p.rtts, 50), b.layer["server.stage_gap_us."+p.name])
	}
	b.reports = append(b.reports, sb.String())
}
