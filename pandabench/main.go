// Command pandabench is the repository's benchmark: one workload per run,
// every answer checked, end-to-end metrics by default and per-layer
// metrics with -trace 1. Run it through run.sh, which builds it and the
// panda-serve binary under test:
//
//	bash pandabench/run.sh --workload batch-cosmo3d --seed 1 --seconds 30 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	batch-cosmo3d  in-process panda.Build + Tree.KNNBatchFlat over 2M cosmo points
//	serve-mixed    one panda-serve warm-started from a PNDS snapshot, mixed traffic
//	cluster4       four panda-serve -cluster ranks cold-built from a .pnda file
//	all            the three in turn, one result line each
//
// A human-readable report goes to standard error; the last line of
// standard output is the JSON result. The run exits nonzero on any wrong
// answer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench is the state of one benchmark run.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	nproc    int
	out      string  // build directory: binaries, traces, results
	work     string  // this run's input files, removed at exit
	tr       *tracer // nil unless -trace 1

	prov    provenance
	e2e     map[string]float64
	layer   map[string]float64
	absent  map[string]bool // per-layer series the program did not expose
	counts  tally
	reports []string // extra report sections (attribution, waterfalls)
}

// phaseShare is each phase's share of the measured seconds. The open-loop
// phases get the most, for latency windows; low, at the lowest rate, has
// the fewest requests per second and so the most time.
var phaseShare = map[string]float64{"low": 0.5, "high": 0.3, "sat": 0.2}

// batchPhaseShare is batch-cosmo3d's split: its throughput estimate, the
// best of many bulk calls, needs few of them, so the latency phases get
// the time.
var batchPhaseShare = map[string]float64{"low": 0.45, "high": 0.45, "sat": 0.1}

func (b *bench) phaseDur(phase string) time.Duration {
	share := phaseShare
	if b.workload == "batch-cosmo3d" {
		share = batchPhaseShare
	}
	return time.Duration(b.seconds * share[phase] * float64(time.Second))
}

func (b *bench) setLayer(name string, v float64) { b.layer[name] = v }

// setLayerIf records a per-layer metric derived from program-exposed
// series, or marks it absent.
func (b *bench) setLayerIf(name string, v float64, ok bool) {
	if ok {
		b.layer[name] = v
	} else {
		b.absent[name] = true
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "batch-cosmo3d | serve-mixed | cluster4 | all (the three in turn, one result line each)")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 12, "measured seconds, split over the workload's three phases")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for binaries, traces and results")
	)
	flag.Parse()
	workloads := []string{*workload}
	if *workload == "all" {
		workloads = []string{"batch-cosmo3d", "serve-mixed", "cluster4"}
	}
	correct := true
	for _, w := range workloads {
		res, err := run(w, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pandabench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pandabench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(2)
	}
}

func run(workload string, seed uint64, seconds float64, traced bool, out string) (*result, error) {
	if seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	out, err := filepath.Abs(out)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{
		workload: workload, seed: seed, seconds: seconds, nproc: runtime.NumCPU(),
		out: out, work: work, e2e: map[string]float64{}, layer: map[string]float64{},
		absent: map[string]bool{},
	}
	if traced {
		b.tr = newTracer(1 << 20)
	}
	b.recordProvenance()
	switch workload {
	case "batch-cosmo3d":
		err = runBatch(b)
	case "serve-mixed":
		err = runServe(b, false)
	case "cluster4":
		err = runServe(b, true)
	default:
		return nil, fmt.Errorf("unknown -workload %q (want batch-cosmo3d, serve-mixed or cluster4)", workload)
	}
	if err != nil {
		return nil, err
	}
	return b.finish()
}

// provenance records what the numbers were measured on.
type provenance struct {
	Commit     string  `json:"commit"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	StealPct   float64 `json:"steal_pct"` // host CPU time stolen from this VM during the run
	steal0     [2]int64
}

func (b *bench) recordProvenance() {
	p := &b.prov
	p.Commit = "unknown (not a git checkout)"
	if _, err := os.Stat(".git"); err == nil {
		if raw, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			p.Commit = strings.TrimSpace(string(raw))
		}
	}
	p.CPU = "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	p.Nproc, p.GOMAXPROCS, p.Go = b.nproc, runtime.GOMAXPROCS(0), runtime.Version()
	p.steal0 = cpuSteal()
	fmt.Fprintf(os.Stderr, "pandabench %s seed=%d seconds=%g trace=%v\n", b.workload, b.seed, b.seconds, b.tr != nil)
	fmt.Fprintf(os.Stderr, "  commit=%s nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", p.Commit, p.Nproc, p.GOMAXPROCS, p.Go, p.CPU)
}

// cpuSteal returns the host's stolen and total CPU ticks from /proc/stat,
// zero where it cannot be read.
func cpuSteal() [2]int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]int64{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var total, steal int64
	for i := 1; i < len(f) && i <= 8; i++ { // user … steal
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return [2]int64{steal, total}
}

// finish prints the report, writes the trace, and builds the result: the
// end-to-end metrics untraced, the per-layer metrics traced.
func (b *bench) finish() (*result, error) {
	res := &result{
		Correct:   b.counts.wrong == 0 && b.counts.errs == 0,
		Attempted: b.counts.attempted(),
		Failed:    b.counts.failed(),
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no requests attempted")
	}
	failFrac := float64(res.Failed) / float64(res.Attempted)
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d (wrong=%d refused=%d errors=%d) fail_frac=%g\n",
		res.Attempted, res.Failed, b.counts.wrong, b.counts.refused, b.counts.errs, failFrac)
	if s := cpuSteal(); s[1] > b.prov.steal0[1] {
		b.prov.StealPct = float64(s[0]-b.prov.steal0[0]) / float64(s[1]-b.prov.steal0[1]) * 100
	}
	fmt.Fprintf(os.Stderr, "  host steal during the run: %.1f%%\n", b.prov.StealPct)

	fmt.Fprintln(os.Stderr, "end-to-end:")
	for _, m := range endToEnd {
		v, ok := b.e2e[m.name]
		if !ok {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		fmt.Fprintf(os.Stderr, "  %-16s %14.4f %s\n", m.name, v, m.unit)
		if b.tr == nil {
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	}
	if b.tr == nil {
		return res, b.writeResult(res, failFrac)
	}

	// A layer the workload does not exercise reads 0; a series the program
	// no longer exposes reads 0 and is listed as absent.
	fmt.Fprintln(os.Stderr, "per-layer:")
	for _, m := range perLayer() {
		v := b.layer[m.name]
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	for name := range b.layer {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s is not in the metric list", name)
		}
	}
	if len(b.absent) > 0 {
		names := make([]string, 0, len(b.absent))
		for name := range b.absent {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "absent series (reported as 0): %s\n", strings.Join(names, ", "))
	}
	for _, r := range b.reports {
		fmt.Fprint(os.Stderr, r)
	}
	if err := os.MkdirAll(filepath.Join(b.out, "traces"), 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(b.out, "traces", fmt.Sprintf("%s-seed%d.tsv", b.workload, b.seed))
	if err := b.tr.write(path); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans (%d dropped) in %s\n", len(b.tr.recorded()), b.tr.dropped.Load(), path)
	return res, b.writeResult(res, failFrac)
}

// writeResult stores the result with its provenance under results/.
func (b *bench) writeResult(res *result, failFrac float64) error {
	dir := filepath.Join(b.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(struct {
		Workload   string     `json:"workload"`
		Seed       uint64     `json:"seed"`
		Seconds    float64    `json:"seconds"`
		Provenance provenance `json:"provenance"`
		FailFrac   float64    `json:"fail_frac"`
		Result     *result    `json:"result"`
	}{b.workload, b.seed, b.seconds, b.prov, failFrac, res}, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if b.tr != nil {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", b.workload, b.seed, trace)), append(doc, '\n'), 0o644)
}
