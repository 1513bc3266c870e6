package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"panda"
	"panda/internal/cluster"
	"panda/internal/core"
	"panda/internal/geom"
	"panda/internal/kdtree"
	"panda/internal/proto"
	"panda/internal/simtime"
	"panda/internal/transport"
)

// Layer probes for the traced run: each calls one layer's exported
// functions on the workload's own data, outside the measured phases.

// kdtreeProbes times single-threaded Searcher calls: KNN with k=8 and k=32
// on knnPts, and RadiusSearch and CountWithin (same traversal, no results)
// on radiusPts. It builds the tree with one thread for kdtree.build_s_t1.
func kdtreeProbes(b *bench, coords []float32, dims int, knnPts, radiusPts [][]float32, r2 float32) float64 {
	t0 := time.Now()
	t := kdtree.Build(geom.FromCoords(coords, dims), nil, kdtree.Options{Threads: 1})
	buildT1 := b.tr.since(spKdtreeBuild, t0).Seconds()
	b.setLayer("kdtree.build_s_t1", buildT1)

	s := t.NewSearcher()
	out := make([]kdtree.Neighbor, 0, 4096)
	loop := func(name spanName, pts [][]float32, fn func(q []float32)) float64 {
		if len(pts) == 0 {
			return 0
		}
		t0 := time.Now()
		for _, q := range pts {
			fn(q)
		}
		return float64(b.tr.since(name, t0).Nanoseconds()) / float64(len(pts))
	}
	var st8 kdtree.QueryStats
	b.setLayer("kdtree.knn8_ns", loop(spSearchK8, knnPts, func(q []float32) {
		_, st := s.Search(q, 8, kdtree.Inf2, out[:0])
		st8.Add(st)
	}))
	b.setLayer("kdtree.knn32_ns", loop(spSearchK32, knnPts, func(q []float32) {
		s.Search(q, 32, kdtree.Inf2, out[:0])
	}))
	n8 := float64(len(knnPts))
	b.setLayer("kdtree.nodes_per_query", float64(st8.NodesVisited)/n8)
	b.setLayer("kdtree.points_per_query", float64(st8.PointsScanned)/n8)
	b.setLayer("kdtree.useful_frac", 8*n8/float64(st8.PointsScanned))

	hits := 0
	b.setLayer("kdtree.radius_ns", loop(spRadiusSearch, radiusPts, func(q []float32) {
		out, _ = s.RadiusSearch(q, r2, out[:0])
		hits += len(out)
	}))
	b.setLayer("kdtree.count_within_ns", loop(spCountWithin, radiusPts, func(q []float32) {
		s.CountWithin(q, r2)
	}))
	if len(radiusPts) > 0 {
		b.setLayer("kdtree.radius_hits", float64(hits)/float64(len(radiusPts)))
	}
	return buildT1
}

// batchProbes adds the engine layers of batch-cosmo3d: the kd-tree probes
// on the self-queries, and the 1-thread versus nproc-thread speedups of
// build and bulk KNN.
func batchProbes(b *bench, tree *panda.Tree, coords []float32, dims int, queries []float32, buildN, qpsN float64) error {
	const probeQueries = 20000
	pts := make([][]float32, probeQueries)
	for i := range pts {
		pts[i] = queries[i*dims : (i+1)*dims]
	}
	buildT1 := kdtreeProbes(b, coords, dims, pts, nil, 0)
	b.setLayer("par.build_speedup", buildT1/buildN)

	// Bulk KNN at one thread, over the first chunk; then the allocation
	// count of the nproc-thread call the throughput phase makes.
	chunk := queries[:bulkChunk*dims]
	tree.SetThreads(1)
	t0 := time.Now()
	if _, _, err := tree.KNNBatchFlat(chunk, batchK); err != nil {
		return err
	}
	qps1 := bulkChunk / b.tr.since(spKNNBatchFlatT1, t0).Seconds()
	tree.SetThreads(b.nproc)
	b.setLayer("par.query_speedup", qpsN/qps1)
	b.setLayer("panda.batch_ns", 1e9/qpsN)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := tree.KNNBatchFlat(chunk, batchK); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	b.setLayer("panda.allocs_per_query", float64(after.Mallocs-before.Mallocs)/bulkChunk)

	b.reports = append(b.reports, fmt.Sprintf("attribution (ns per query, k=%d self-queries):\n"+
		"  kdtree.Searcher, 1 thread %10.0f\n  KNNBatchFlat, 1 thread    %10.0f\n  KNNBatchFlat, %d threads   %10.0f  (%.0f thread-ns)\n",
		batchK, b.layer["kdtree.knn8_ns"], 1e9/qps1, b.nproc, 1e9/qpsN, 1e9/qpsN*float64(b.nproc)))
	return nil
}

// protoProbes times the wire codec on the catalogue's queries and their
// reference answers.
func protoProbes(b *bench, cat *catalogue, dims int) error {
	var (
		req      proto.Request
		resp     proto.Response
		buf      []byte
		bytes    int
		encReq   time.Duration
		decReq   time.Duration
		encResp  time.Duration
		decResp  time.Duration
		offsets  = []int32{0, 0}
		reqBufs  = make([][]byte, len(cat.queries))
		respBufs = make([][]byte, len(cat.queries))
	)
	t0 := time.Now()
	start := t0
	for i, q := range cat.queries {
		if q.k > 0 {
			buf = proto.AppendKNNRequest(buf[:0], uint64(i), q.k, q.point, dims)
		} else {
			buf = proto.AppendRadiusRequest(buf[:0], uint64(i), q.r2, q.point)
		}
		reqBufs[i] = append(reqBufs[i], buf...)
	}
	encReq = time.Since(start)
	start = time.Now()
	for i := range cat.queries {
		if err := proto.ConsumeRequest(reqBufs[i], dims, &req); err != nil {
			return fmt.Errorf("proto probe: %w", err)
		}
	}
	decReq = time.Since(start)
	start = time.Now()
	for i := range cat.queries {
		offsets[1] = int32(len(cat.expected[i]))
		buf = proto.AppendNeighborsResponse(buf[:0], uint64(i), offsets, cat.expected[i])
		respBufs[i] = append(respBufs[i], buf...)
	}
	encResp = time.Since(start)
	start = time.Now()
	for i := range cat.queries {
		if err := proto.ConsumeResponse(respBufs[i], &resp); err != nil {
			return fmt.Errorf("proto probe: %w", err)
		}
		bytes += len(reqBufs[i]) + len(respBufs[i]) + 8 // two 4-byte frame headers
	}
	decResp = time.Since(start)
	b.tr.since(spProtoCodec, t0)
	n := float64(len(cat.queries))
	b.setLayer("proto.req_encode_ns", float64(encReq.Nanoseconds())/n)
	b.setLayer("proto.req_decode_ns", float64(decReq.Nanoseconds())/n)
	b.setLayer("proto.resp_encode_ns", float64(encResp.Nanoseconds())/n)
	b.setLayer("proto.resp_decode_ns", float64(decResp.Nanoseconds())/n)
	b.setLayer("proto.bytes_per_query", float64(bytes)/n)
	return nil
}

// snapshotProbes times panda.OpenSnapshot of the served file.
func snapshotProbes(b *bench, path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	var opens []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		t, err := panda.OpenSnapshot(path)
		if err != nil {
			return err
		}
		opens = append(opens, float64(b.tr.since(spOpenSnapshot, t0).Nanoseconds())/1e6)
		if err := t.Close(); err != nil {
			return err
		}
	}
	b.setLayer("snapshot.open_ms", median(opens))
	b.setLayer("snapshot.file_mb", float64(fi.Size())/(1<<20))
	return nil
}

// timedTransport counts and times one rank's mesh traffic.
type timedTransport struct {
	transport.Transport
	mu       sync.Mutex
	msgs     int64
	bytes    int64
	recvWait time.Duration
}

func (t *timedTransport) Send(to, tag int, payload []byte) error {
	t.mu.Lock()
	t.msgs++
	t.bytes += int64(len(payload))
	t.mu.Unlock()
	return t.Transport.Send(to, tag, payload)
}

func (t *timedTransport) Recv(from, tag int) (int, []byte, error) {
	start := time.Now()
	src, payload, err := t.Transport.Recv(from, tag)
	t.mu.Lock()
	t.recvWait += time.Since(start)
	t.mu.Unlock()
	return src, payload, err
}

// distributedBuildProbe runs core.BuildDistributed on ranks in-process
// ranks joined by a loopback TCP mesh, over the same striped shards the
// cluster4 ranks build, timing each rank's build and its mesh traffic.
func distributedBuildProbe(b *bench, coords []float32, dims, ranks int) error {
	lns := make([]net.Listener, ranks)
	addrs := make([]string, ranks)
	for r := range lns {
		ln, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:r] {
				l.Close()
			}
			return err
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	n := len(coords) / dims
	var (
		wg     sync.WaitGroup
		errs   = make([]error, ranks)
		trs    = make([]*timedTransport, ranks)
		buildS = make([]float64, ranks)
		localN = make([]float64, ranks)
	)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tcp, err := transport.NewTCP(r, lns[r], addrs)
			if err != nil {
				errs[r] = err
				return
			}
			defer tcp.Close()
			trs[r] = &timedTransport{Transport: tcp}
			var shard []float32
			var ids []int64
			for i := r; i < n; i += ranks {
				shard = append(shard, coords[i*dims:(i+1)*dims]...)
				ids = append(ids, int64(i))
			}
			comm := cluster.New(trs[r], simtime.NewRecorder(b.nproc))
			t0 := time.Now()
			dt, err := core.BuildDistributed(comm, geom.FromCoords(shard, dims), ids, core.Options{})
			end := time.Now()
			b.tr.add(spBuildDistributed, t0, end, -1, int64(r))
			buildS[r] = end.Sub(t0).Seconds()
			if err != nil {
				errs[r] = err
				return
			}
			localN[r] = float64(dt.Local.Len())
			// Keep the mesh up until every rank has finished its part.
			comm.Barrier()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("distributed build probe: %w", err)
		}
	}
	var msgs, bytes int64
	var wait time.Duration
	for _, t := range trs {
		msgs += t.msgs
		bytes += t.bytes
		wait += t.recvWait
	}
	b.setLayer("transport.msgs", float64(msgs))
	b.setLayer("transport.mb", float64(bytes)/(1<<20))
	b.setLayer("transport.recv_wait_s", wait.Seconds())
	b.setLayer("core.build_s", maxOf(buildS))
	b.setLayer("core.build_imbalance", maxOf(buildS)/mean(buildS))
	b.setLayer("core.points_imbalance", maxOf(localN)/mean(localN))
	return nil
}
