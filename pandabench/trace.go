package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// spanName names the public function a span times. Spans hold the id
// rather than the string so that the span buffer has no pointers for the
// garbage collector to scan while the run is measured.
type spanName uint8

const (
	spRequest spanName = iota // open-loop request: scheduled send → answer
	spClientKNN
	spClientRadius
	spBuild
	spKNNBatchFlat
	spKNNBatchFlatT1
	spKdtreeBuild
	spSearchK8
	spSearchK32
	spRadiusSearch
	spCountWithin
	spProtoCodec
	spOpenSnapshot
	spBuildDistributed
)

var spanNames = [...]string{
	spRequest:          "loadgen.request",
	spClientKNN:        "panda.Client.KNN",
	spClientRadius:     "panda.Client.RadiusSearch",
	spBuild:            "panda.Build",
	spKNNBatchFlat:     "panda.Tree.KNNBatchFlat",
	spKNNBatchFlatT1:   "panda.Tree.KNNBatchFlat/threads=1",
	spKdtreeBuild:      "kdtree.Build/threads=1",
	spSearchK8:         "kdtree.Searcher.Search/k=8",
	spSearchK32:        "kdtree.Searcher.Search/k=32",
	spRadiusSearch:     "kdtree.Searcher.RadiusSearch",
	spCountWithin:      "kdtree.Searcher.CountWithin",
	spProtoCodec:       "proto.codec",
	spOpenSnapshot:     "panda.OpenSnapshot",
	spBuildDistributed: "core.BuildDistributed",
}

// span is one timed call from the benchmark into a layer's public
// function. Spans of one request share req; parent is the index of the
// enclosing span, or -1.
type span struct {
	name       spanName
	parent     int32
	start, end time.Duration // since the tracer's epoch
	req        int64
}

// tracer holds spans in memory, in a buffer sized up front, and writes
// them when the run ends. A nil *tracer records nothing: the untraced run
// measures the end-to-end metrics without tracing cost.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// reserve allocates a span slot, so that children can name it as parent
// before it ends. It returns -1 when tracing is off or the buffer is full.
func (t *tracer) reserve() int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	return int32(i)
}

// set fills slot i.
func (t *tracer) set(i int32, name spanName, start, end time.Time, parent int32, req int64) {
	if t != nil && i >= 0 {
		t.spans[i] = span{name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch), parent: parent, req: req}
	}
}

// add records a finished span and returns its slot.
func (t *tracer) add(name spanName, start, end time.Time, parent int32, req int64) int32 {
	i := t.reserve()
	t.set(i, name, start, end, parent, req)
	return i
}

// since records a span from start to now and returns its duration.
func (t *tracer) since(name spanName, start time.Time) time.Duration {
	end := time.Now()
	t.add(name, start, end, -1, -1)
	return end.Sub(start)
}

// recorded returns the spans recorded so far.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	return t.spans[:min(t.next.Load(), int64(len(t.spans)))]
}

// write stores the spans as tab-separated lines: slot, name, start ns,
// end ns, parent slot, request id.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "#span\tname\tstart_ns\tend_ns\tparent\treq")
	for i, s := range t.recorded() {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, spanNames[s.name], s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
