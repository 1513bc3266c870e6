package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"panda"
	"panda/internal/baselines"
	"panda/internal/geom"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{hundred, 0.5, 1},
		{[]float64{7}, 99, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2},
		{[]float64{1, 2, 3, 4}, 75, 3},
		{nil, 50, 0},
	} {
		xs := append([]float64(nil), c.xs...)
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	const rate, secs = 2000.0, 20
	a := poissonSchedule(rand.New(rand.NewSource(1)), rate, secs*time.Second)
	if got, want := float64(len(a)), rate*secs; math.Abs(got-want) > 0.02*want {
		t.Fatalf("%d arrivals, want %g ± 2%%", len(a), want)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("offsets not increasing at %d", i)
		}
	}
	if a[len(a)-1] >= secs*time.Second {
		t.Fatalf("last offset %v beyond the window", a[len(a)-1])
	}
	b := poissonSchedule(rand.New(rand.NewSource(1)), rate, secs*time.Second)
	if len(a) != len(b) || a[len(a)/2] != b[len(b)/2] {
		t.Fatal("same seed gave a different schedule")
	}
}

// A request that stalls while the generator is at its outstanding cap
// makes the requests behind it late, and their latency, counted from the
// scheduled send, includes that wait.
func TestOpenLoopLatenessUnderStall(t *testing.T) {
	const gap, stall, stalled = 2 * time.Millisecond, 60 * time.Millisecond, 5
	offsets := make([]time.Duration, 20)
	for i := range offsets {
		offsets[i] = time.Duration(i) * gap
	}
	samples := openLoop(offsets, 1, func(i int, due time.Time) status {
		if i == stalled {
			time.Sleep(stall)
		}
		return stOK
	})
	next := samples[stalled+1]
	if want := stall - 2*gap; next.late < want {
		t.Errorf("request after the stall: late %v, want ≥ %v", next.late, want)
	}
	if next.lat < next.late {
		t.Errorf("latency %v shorter than lateness %v", next.lat, next.late)
	}
	if samples[stalled].lat < stall {
		t.Errorf("stalled request latency %v, want ≥ %v", samples[stalled].lat, stall)
	}
	s := summarize(samples, offsets, 1, windowSamples)
	if s.ok != int64(len(offsets)) || s.latePct99 < us(stall-2*gap) {
		t.Errorf("summary %+v: want %d ok and late p99 ≥ %v", s, len(offsets), stall-2*gap)
	}
}

// In the FIFO loop a slow request holds up the ones behind it: their
// lateness is the wait, and their latency includes it.
func TestFIFOLoopQueuesBehindStall(t *testing.T) {
	const gap, stall, stalled = time.Millisecond, 20 * time.Millisecond, 3
	offsets := make([]time.Duration, 10)
	for i := range offsets {
		offsets[i] = time.Duration(i) * gap
	}
	samples := fifoLoop(offsets, func(i int) status {
		if i == stalled {
			time.Sleep(stall)
		}
		return stOK
	})
	if s := samples[stalled]; s.late > gap || s.lat < stall {
		t.Errorf("stalled request: late %v, latency %v; want ≤ %v and ≥ %v", s.late, s.lat, gap, stall)
	}
	next := samples[stalled+1]
	if want := stall - gap; next.late < want || next.lat < next.late {
		t.Errorf("request behind the stall: late %v, latency %v; want late ≥ %v ≤ latency", next.late, next.lat, want)
	}
}

const cannedBefore = `# HELP panda_queries_total Queries answered.
# TYPE panda_queries_total counter
panda_queries_total 100
panda_batches_total 50
panda_request_latency_seconds_sum 0.5
panda_request_latency_seconds_count 100
panda_stage_latency_seconds_sum{stage="engine"} 0.1
panda_stage_latency_seconds_count{stage="engine"} 100
panda_stage_latency_seconds_sum{stage="linger"} 0.2
panda_stage_latency_seconds_count{stage="linger"} 100
`

const cannedAfter = `panda_queries_total 1100
panda_batches_total 150
panda_request_latency_seconds_sum 1.5
panda_request_latency_seconds_count 1100
panda_stage_latency_seconds_sum{stage="engine"} 0.3
panda_stage_latency_seconds_count{stage="engine"} 1100
panda_stage_latency_seconds_sum{stage="linger"} 0.2
panda_stage_latency_seconds_count{stage="linger"} 1100
panda_new_series 5
`

func TestPhaseDeltasOnCannedExposition(t *testing.T) {
	before, err := parseExposition(cannedBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(cannedAfter)
	if err != nil {
		t.Fatal(err)
	}
	// Two identical ranks: deltas sum over ranks, means do not change.
	d := phaseDeltas([]exposition{before, before}, []exposition{after, after})
	if got := d["panda_queries_total"]; got != 2000 {
		t.Errorf("queries delta %g, want 2000", got)
	}
	if v, ok := d.ratio("panda_queries_total", "panda_batches_total", 1); !ok || v != 10 {
		t.Errorf("batch size %g %v, want 10", v, ok)
	}
	if v, ok := d.stageMeanUS("engine"); !ok || math.Abs(v-200) > 1e-9 {
		t.Errorf("engine mean %g µs %v, want 200", v, ok)
	}
	if v, ok := d.stageMeanUS("linger"); !ok || v != 0 {
		t.Errorf("linger mean %g µs %v, want 0", v, ok)
	}
	if v, ok := d.ratio("panda_request_latency_seconds_sum", "panda_request_latency_seconds_count", 1e6); !ok || math.Abs(v-1000) > 1e-9 {
		t.Errorf("e2e mean %g µs %v, want 1000", v, ok)
	}
	// A series missing from either scrape is absent, not zero.
	if _, ok := d["panda_new_series"]; ok {
		t.Error("series missing before the phase was reported")
	}
	if _, ok := d.stageMeanUS("queue_wait"); ok {
		t.Error("missing stage reported as present")
	}
	if _, err := parseExposition("panda_queries_total one\n"); err == nil {
		t.Error("malformed value accepted")
	}
	if _, err := parseExposition("# only comments\n"); err == nil {
		t.Error("empty exposition accepted")
	}
}

func TestVerifierRejectsOneCorruptedNeighbour(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	coords := make([]float32, 3*5000)
	for i := range coords {
		coords[i] = rng.Float32()
	}
	tree, err := panda.Build(coords, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := geom.FromCoords(coords, 3)
	q := coords[3*17 : 3*18]
	want := baselines.BruteKNN(pts, nil, q, 8)
	got := tree.KNN(q, 8)
	if !sameNeighbors(got, want) || !knnMatches(got, want, 8, q, pts) {
		t.Fatalf("tree %v and brute force %v disagree", got, want)
	}
	corrupt := func(name string, f func(n []panda.Neighbor) []panda.Neighbor) {
		bad := f(append([]panda.Neighbor(nil), got...))
		if sameNeighbors(bad, want) || knnMatches(bad, want, 8, q, pts) {
			t.Errorf("%s: corrupted answer accepted", name)
		}
	}
	corrupt("id", func(n []panda.Neighbor) []panda.Neighbor { n[3].ID++; return n })
	corrupt("dist2 ulp", func(n []panda.Neighbor) []panda.Neighbor {
		n[5].Dist2 = math.Float32frombits(math.Float32bits(n[5].Dist2) + 1)
		return n
	})
	corrupt("order", func(n []panda.Neighbor) []panda.Neighbor { n[1], n[2] = n[2], n[1]; return n })
	corrupt("missing", func(n []panda.Neighbor) []panda.Neighbor { return n[:7] })
	corrupt("last id", func(n []panda.Neighbor) []panda.Neighbor { n[7].ID++; return n })
}

// On an integer grid the neighbours of a cell centre tie exactly. Among
// those tied at the k-th distance any choice is correct; knnMatches accepts
// another one, but not an id that lies elsewhere, nor a repeated id.
func TestVerifierAcceptsOtherTiedNeighbour(t *testing.T) {
	var coords []float32
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			coords = append(coords, float32(x), float32(y))
		}
	}
	pts := geom.FromCoords(coords, 2)
	q := []float32{1.5, 1.5} // four points tie at d² = 0.5
	want := baselines.BruteKNN(pts, nil, q, 2)
	id := func(x, y int) int64 { return int64(x*4 + y) }
	if len(want) != 2 || want[0].ID != id(1, 1) || want[1].ID != id(1, 2) {
		t.Fatalf("brute force %v, want ids %d, %d", want, id(1, 1), id(1, 2))
	}
	at := func(ids ...int64) []panda.Neighbor {
		n := make([]panda.Neighbor, len(ids))
		for i, v := range ids {
			n[i] = panda.Neighbor{ID: v, Dist2: 0.5}
		}
		return n
	}
	if !knnMatches(at(id(1, 1), id(2, 2)), want, 2, q, pts) {
		t.Error("another neighbour tied at the k-th distance rejected")
	}
	if knnMatches(at(id(1, 1), id(3, 3)), want, 2, q, pts) {
		t.Error("id reported at the tie distance but lying elsewhere accepted")
	}
	if knnMatches(at(id(1, 1), id(1, 1)), want, 2, q, pts) {
		t.Error("repeated id accepted")
	}
	// A tie below the k-th distance is kept whole, in id order, so its
	// ids must match: (1,1) and (2,1) tie at d² = 0.3125, below the k-th
	// distance 0.8125.
	q3 := []float32{1.5, 1.25}
	want3 := baselines.BruteKNN(pts, nil, q3, 3)
	if want3[0].Dist2 != want3[1].Dist2 || want3[1].Dist2 == want3[2].Dist2 {
		t.Fatalf("brute force %v: want a tie at ranks 1-2 only", want3)
	}
	got3 := append([]panda.Neighbor(nil), want3...)
	got3[0].ID, got3[1].ID = got3[1].ID, got3[0].ID
	if knnMatches(got3, want3, 3, q3, pts) {
		t.Error("reordered ids below the k-th distance accepted")
	}
}

// summarize's end-to-end p99 is the best window's; a slowdown confined to
// one window leaves it alone but shows in the phase-wide p99.
func TestSummarizeBestWindowAndPhaseWide(t *testing.T) {
	const rate = 1000.0 // one window per second of schedule
	var offsets []time.Duration
	var samples []sample
	for i := 0; i < 4*windowSamples; i++ {
		lat := 100 * time.Microsecond
		if i >= windowSamples && i < windowSamples+windowSamples/20 { // 5% of window 2
			lat = 10 * time.Millisecond
		}
		offsets = append(offsets, time.Duration(i)*time.Millisecond)
		samples = append(samples, sample{lat: lat, st: stOK})
	}
	s := summarize(samples, offsets, rate, windowSamples)
	if s.p99 != 100 || s.medWinP99 != 100 {
		t.Errorf("best-window p99 %g, median-window p99 %g µs, want 100 and 100", s.p99, s.medWinP99)
	}
	if s.phaseP99 != 10000 || s.phaseP50 != 100 {
		t.Errorf("phase p50 %g, p99 %g µs, want 100 and 10000", s.phaseP50, s.phaseP99)
	}
}

// BENCHMARK.json and the metric lists the benchmark prints must agree.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}
