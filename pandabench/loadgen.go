package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// status is the outcome of one request.
type status uint8

const (
	stOK      status = iota
	stWrong          // answered, but not bit-identical to the reference
	stRefused        // shed at the server's admission limit
	stError          // transport or server error
)

// sample is one open-loop request: latency and lateness are both measured
// from the request's scheduled send time, so a generator that falls behind
// shows its delay in every later request instead of hiding it.
type sample struct {
	lat  time.Duration // scheduled send → answer
	late time.Duration // scheduled send → actual send
	st   status
}

// tally counts outcomes.
type tally struct {
	ok, wrong, refused, errs int64
}

func (t *tally) add(st status) {
	switch st {
	case stOK:
		t.ok++
	case stWrong:
		t.wrong++
	case stRefused:
		t.refused++
	default:
		t.errs++
	}
}

func (t *tally) addAll(o tally) {
	t.ok += o.ok
	t.wrong += o.wrong
	t.refused += o.refused
	t.errs += o.errs
}

func (t tally) attempted() int64 { return t.ok + t.wrong + t.refused + t.errs }
func (t tally) failed() int64    { return t.wrong + t.refused + t.errs }

// prSetTimerSlack / prGetTimerSlack are the prctl options that set the
// calling thread's timer slack. The kernel's default 50 µs slack would be
// added to every scheduled send.
const (
	prSetTimerSlack = 29
	prGetTimerSlack = 30
)

// sleepUntil blocks the calling OS thread until t. It uses nanosleep rather
// than time.Sleep: the Go runtime rounds sub-millisecond timer waits up to
// a millisecond when the process is idle, which would make an open-loop
// generator late by up to that much on every send.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop re-checks the clock
	}
}

// lockPreciseTimer locks the calling goroutine to its OS thread and sets
// that thread's timer slack to 1 ns, for sleepUntil; the returned function
// undoes both.
func lockPreciseTimer() func() {
	runtime.LockOSThread()
	prev, _, _ := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return func() {
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, prev, 0)
		runtime.UnlockOSThread()
	}
}

// openLoop issues len(offsets) requests, request i due at start+offsets[i],
// each on its own goroutine running do(i, due). At most maxOut requests are
// outstanding; when the cap is reached the scheduler waits, and the wait
// shows up as lateness of the requests behind it. openLoop returns the
// samples in schedule order once every request has finished.
func openLoop(offsets []time.Duration, maxOut int, do func(i int, due time.Time) status) []sample {
	out := make([]sample, len(offsets))
	sem := make(chan struct{}, maxOut)
	var wg sync.WaitGroup

	defer lockPreciseTimer()()

	start := time.Now().Add(time.Millisecond)
	for i, off := range offsets {
		due := start.Add(off)
		sleepUntil(due)
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent := time.Now()
			st := do(i, due)
			out[i] = sample{lat: time.Since(due), late: sent.Sub(due), st: st}
			<-sem
		}()
	}
	wg.Wait()
	return out
}

// fifoLoop serves the same kind of schedule with one server: request i
// runs on the calling goroutine at its due time, or as soon as request i-1
// has finished if that is later, so requests queue behind a slow one the
// way jobs queue in front of a batch engine. Latency and lateness count
// from the due time. The server polls for its next request, spinning until
// it is due, as a latency-critical engine would: a vCPU of a shared VM
// that sleeps in between can take milliseconds to be woken, noise that
// would enter every request's latency, most at the lowest rate.
func fifoLoop(offsets []time.Duration, do func(i int) status) []sample {
	out := make([]sample, len(offsets))
	start := time.Now().Add(time.Millisecond)
	for i, off := range offsets {
		due := start.Add(off)
		for time.Now().Before(due) {
		}
		sent := time.Now()
		st := do(i)
		out[i] = sample{lat: time.Since(due), late: sent.Sub(due), st: st}
	}
	return out
}

// closedLoop runs workers goroutines that each issue do(worker, seq) back
// to back until d has passed, seq numbering the requests across workers.
// It returns the outcome counts and the rate of successful requests in
// each successive window of length window.
func closedLoop(workers int, d, window time.Duration, do func(w int, seq int64) status) (tally, []float64) {
	var (
		next  atomic.Int64
		okN   atomic.Int64
		mu    sync.Mutex
		total tally
		wg    sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			for time.Now().Before(deadline) {
				st := do(w, next.Add(1)-1)
				if st == stOK {
					okN.Add(1)
				}
				t.add(st)
			}
			mu.Lock()
			total.addAll(t)
			mu.Unlock()
		}()
	}
	var rates []float64
	last, lastN := start, int64(0)
	for t := start.Add(window); !t.After(deadline); t = t.Add(window) {
		time.Sleep(time.Until(t))
		now, n := time.Now(), okN.Load()
		rates = append(rates, float64(n-lastN)/now.Sub(last).Seconds())
		last, lastN = now, n
	}
	wg.Wait()
	if len(rates) == 0 { // d shorter than one window
		rates = append(rates, float64(okN.Load())/time.Since(start).Seconds())
	}
	return total, rates
}

// openSummary is an open-loop phase reduced to its outcome counts, its
// latency (µs, successful requests only) and the generator's lateness.
// p50 and p99 are best-window estimates (see summarize); phaseP50 and
// phaseP99 are the percentiles of the whole phase, and medWinP99 the
// median over windows, so that a slowdown that comes and goes, and so
// leaves the best window clean, still shows in the traced run.
type openSummary struct {
	tally
	p50, p99, latePct99           float64
	phaseP50, phaseP99, medWinP99 float64
}

// windowSamples is how many requests, at the offered rate, one latency
// window of the serving workloads holds: enough for its 99th percentile to
// have ten samples beyond.
const windowSamples = 1000

// batchWindowSamples is the same for batch-cosmo3d's jobs: 40 ms at its
// high rate, so that many windows fall between the host's stalls, and
// still two samples beyond the 99th percentile. With windows of 1000 jobs
// (200 ms) nearly every window held a stall, and the best window's p99 at
// 5000 jobs/s spread 0.25 (IQR over median) across twelve runs; with 200 it
// spread 0.14 on the same samples.
const batchWindowSamples = 200

// summarize reduces open-loop samples to an openSummary. The phase is cut
// into windows of win expected requests by scheduled send time, and p50
// and p99 are the lowest, over windows, of each window's
// percentile: best-window percentiles, not the phase's. The shared host's
// stalls only ever add latency, and they hit a varying share of the
// windows, often most of them; the best window is the estimate that noise
// moves least, while a slower program moves every window, the best one
// too. A slowdown that hits only some windows (GC pauses, periodic stalls)
// does not move it; the phase-wide and median-window figures catch those.
func summarize(samples []sample, offsets []time.Duration, rate float64, win int) openSummary {
	var s openSummary
	window := time.Duration(float64(win) / rate * float64(time.Second))
	var p50s, p99s, lat []float64
	all := make([]float64, 0, len(samples))
	late := make([]float64, 0, len(samples))
	flush := func() {
		if len(lat) > 0 {
			p50s = append(p50s, percentile(lat, 50))
			p99s = append(p99s, percentile(lat, 99))
		}
		lat = lat[:0]
	}
	end := window
	for i, x := range samples {
		if offsets[i] >= end && len(offsets)-i >= win/2 {
			flush()
			end += window
		}
		s.add(x.st)
		late = append(late, us(x.late))
		if x.st == stOK {
			lat = append(lat, us(x.lat))
			all = append(all, us(x.lat))
		}
	}
	flush()
	if len(p50s) > 0 {
		s.p50, s.p99 = slices.Min(p50s), slices.Min(p99s)
		s.medWinP99 = median(p99s)
	}
	s.phaseP50, s.phaseP99 = percentile(all, 50), percentile(all, 99)
	s.latePct99 = percentile(late, 99)
	return s
}

// setOpenLayers records the generator's per-layer figures of an open-loop
// phase.
func (b *bench) setOpenLayers(phase string, s openSummary, sent int) {
	sfx := "." + phase
	b.setLayer("loadgen.sent"+sfx, float64(sent))
	b.setLayer("loadgen.late_p99_us"+sfx, s.latePct99)
	b.setLayer("loadgen.phase_p50_us"+sfx, s.phaseP50)
	b.setLayer("loadgen.phase_p99_us"+sfx, s.phaseP99)
	b.setLayer("loadgen.median_window_p99_us"+sfx, s.medWinP99)
}

// setSatLayers records the phase-wide and median-window rates of a
// throughput phase, whose end-to-end figure is its best window.
func (b *bench) setSatLayers(sent, okQueries int64, elapsed time.Duration, rates []float64) {
	b.setLayer("loadgen.sent.sat", float64(sent))
	b.setLayer("loadgen.phase_qps.sat", float64(okQueries)/elapsed.Seconds())
	b.setLayer("loadgen.median_window_qps.sat", median(append([]float64(nil), rates...)))
}
