package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"time"

	"divmax"
	"divmax/internal/api"
	"divmax/internal/cluster"
	"divmax/internal/metric"
	"divmax/internal/sequential"
	"divmax/internal/server"
	"divmax/internal/wal"
)

// The traced run. It replays a workload's generated requests — a fixed
// schedule, so that counts repeat exactly for a seed — in-process
// through each layer's public functions, with a span around every call.
// The spans are the benchmark's own: nothing inside the program is
// instrumented. Every layer is exercised on every workload's requests,
// so each per-layer metric is always present; README.md says on which
// workloads a layer sits on the end-to-end path.

const (
	kindIngest = "ingest"
	kindDelete = "delete"
	kindQuery  = "query"

	replayShards = 2 // the shard count of every deployment
	kprime       = 4 * maxK
	spares       = 2
	// deltaBudget mirrors divmaxd's default: a stale merged union is
	// patched while the delta is at most this share of it.
	deltaBudget = 0.25
	// fillRows is the number of matrix rows one metric.fill span writes.
	fillRows = 32
)

// replayReq is one request of the replay schedule.
type replayReq struct {
	id      int
	kind    string
	pts     []divmax.Vector
	body    []byte // ingest and delete bodies
	measure string // queries
}

// schedule returns w's fixed replay schedule for seed: the set-up
// prefill and one query per family, a bulk phase with one query after
// it, and ReplayRounds churn rounds. It draws from the generator in the
// same order as the end-to-end run, so its requests are a prefix-shaped
// copy of what the server sees there.
func schedule(w workload, seed uint64) []replayReq {
	g := newGen(seed, w.Dim)
	var reqs []replayReq
	add := func(kind string, pts []divmax.Vector, measure string) {
		r := replayReq{id: len(reqs), kind: kind, pts: pts, measure: measure}
		if kind != kindQuery {
			r.body = appendPointsBody(nil, pts)
		}
		reqs = append(reqs, r)
	}
	batches := func(pts []divmax.Vector) {
		for lo := 0; lo < len(pts); lo += w.Batch {
			add(kindIngest, pts[lo:min(lo+w.Batch, len(pts))], "")
		}
	}
	batches(g.ingest(w.Prefill))
	for _, m := range churnMeasures {
		add(kindQuery, nil, m)
	}
	for n := 0; n < w.ReplayBulk; n += w.Batch {
		add(kindIngest, g.ingest(w.Batch), "")
	}
	add(kindQuery, nil, churnMeasures[0])
	for r := range w.ReplayRounds {
		rd := g.round(r, w)
		add(kindIngest, rd.ins, "")
		add(kindDelete, rd.dels, "")
		add(kindQuery, nil, rd.measure)
	}
	return reqs
}

// replayer carries one traced run's state.
type replayer struct {
	w        workload
	reqs     []replayReq
	dir      string
	tr       *tracer
	metrics  map[string]metricVal
	requests int // requests replayed, over all passes
}

func (rp *replayer) put(name, unit string, v float64) {
	rp.metrics[name] = metricVal{Value: v, Unit: unit}
}

// runTraced replays w's schedule for seed through every layer, writes
// the spans to dir/spans.json and returns the per-layer metrics.
func runTraced(dir string, w workload, seed uint64) (result, error) {
	rp := &replayer{w: w, reqs: schedule(w, seed), dir: dir, tr: newTracer(true), metrics: map[string]metricVal{}}
	// The untraced server pass runs first, so that both server passes
	// find the process in the same state of warmth.
	untraced, err := rp.serverPass(newTracer(false), "untraced")
	if err != nil {
		return result{}, err
	}
	traced, err := rp.serverPass(rp.tr, "traced")
	if err != nil {
		return result{}, err
	}
	rp.put("trace.overhead_frac", "ratio", traced.Seconds()/untraced.Seconds()-1)
	for _, pass := range []func() error{rp.apiPass, rp.transportPass, rp.coresetPass, rp.walPass, rp.recoveryPass, rp.clusterPass} {
		if err := pass(); err != nil {
			return result{}, err
		}
	}
	for layer, d := range layerSelf(rp.tr.spans) {
		if layer != "replay" {
			rp.put(layer+".self_ms", "ms", ms(d))
		}
	}
	if err := rp.tr.write(filepath.Join(dir, "spans.json")); err != nil {
		return result{}, err
	}
	logf("%s: traced replay of %d requests wrote %d spans", w.Name, len(rp.reqs), len(rp.tr.spans))
	return result{Correct: true, Attempted: rp.requests, Metrics: rp.metrics}, nil
}

// spanStats sums the duration of the spans named name opened under
// parent, and counts them.
func (rp *replayer) spanStats(parent int, name string) (time.Duration, int) {
	var total time.Duration
	n := 0
	for _, s := range rp.tr.spans {
		if s.Name == name && s.Parent == parent {
			total += time.Duration(s.End - s.Start)
			n++
		}
	}
	return total, n
}

// apiPass decodes every write body into the wire types.
func (rp *replayer) apiPass() error {
	root := rp.tr.begin("replay.api", -1, -1)
	defer rp.tr.end(root)
	var pts, byteCount int
	for _, r := range rp.reqs {
		if r.kind == kindQuery {
			continue
		}
		var got int
		var err error
		rp.tr.do("api.decode", root, r.id, func() {
			if r.kind == kindIngest {
				var req api.IngestRequest
				err = json.Unmarshal(r.body, &req)
				got = len(req.Points)
			} else {
				var req api.DeleteRequest
				err = json.Unmarshal(r.body, &req)
				got = len(req.Points)
			}
		})
		if err != nil || got != len(r.pts) {
			return fmt.Errorf("api: request %d decoded to %d points (%v), want %d", r.id, got, err, len(r.pts))
		}
		pts += len(r.pts)
		byteCount += len(r.body)
	}
	total, _ := rp.spanStats(root, "api.decode")
	rp.put("api.decode_us_per_pt", "us", float64(total)/1e3/float64(pts))
	rp.put("api.body_bytes_per_pt", "bytes", float64(byteCount)/float64(pts))
	return nil
}

// serve runs one request through h without a socket and decodes the
// answer into out.
func serve(h http.Handler, method, path string, body []byte, out any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s %s: http %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

func reqTarget(r replayReq) (method, path string) {
	switch r.kind {
	case kindIngest:
		return http.MethodPost, "/v1/ingest"
	case kindDelete:
		return http.MethodPost, "/v1/delete"
	}
	return http.MethodGet, fmt.Sprintf("/v1/query?k=%d&measure=%s", maxK, r.measure)
}

// serverConfig is the single-process configuration of w's deployment
// (the cluster workload's single-process equivalent has the same two
// shards in one process).
func (rp *replayer) serverConfig(name string) server.Config {
	cfg := server.Config{Shards: replayShards, MaxK: maxK}
	if rp.w.Mode == modeWAL {
		// No checkpoint ticker: recovery then replays the whole log, so
		// its counts repeat exactly.
		cfg.DataDir, cfg.Fsync, cfg.CheckpointEvery = filepath.Join(rp.dir, name), wal.SyncInterval, -1
	}
	return cfg
}

// serverPass runs the schedule through Handler().ServeHTTP with an
// in-memory recorder and returns the pass's wall time. Only the traced
// pass reports metrics.
func (rp *replayer) serverPass(tr *tracer, name string) (time.Duration, error) {
	srv, err := server.New(rp.serverConfig("server-" + name))
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	h := srv.Handler()
	type queryRun struct {
		span int
		resp api.QueryResponse
	}
	var queries []queryRun
	var writePts int
	start := time.Now()
	root := tr.begin("replay.server", -1, -1)
	sent, bulkEnd := int64(0), rp.bulkEndQuery()
	for _, r := range rp.reqs {
		method, path := reqTarget(r)
		var resp api.QueryResponse
		var out any = &resp
		if r.kind != kindQuery {
			out = &map[string]any{}
			writePts += len(r.pts)
		}
		if r.kind == kindIngest {
			sent += int64(len(r.pts))
		}
		var err error
		id := tr.do("server.handler", root, r.id, func() { err = serve(h, method, path, r.body, out) })
		if err != nil {
			return 0, fmt.Errorf("server: request %d: %w", r.id, err)
		}
		if r.id == bulkEnd && resp.Processed != sent {
			return 0, fmt.Errorf("server: after bulk, processed %d of %d points", resp.Processed, sent)
		}
		if r.kind == kindQuery && r.id > bulkEnd {
			queries = append(queries, queryRun{id, resp})
		}
	}
	tr.end(root)
	elapsed := time.Since(start)
	rp.requests += len(rp.reqs)
	if !tr.on {
		return elapsed, nil
	}

	var st api.StatsResponse
	if err := serve(h, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return 0, err
	}
	var writeTime time.Duration
	for _, s := range tr.spans[root+1:] {
		if r := rp.reqs[s.Req]; s.Parent == root && r.kind != kindQuery {
			writeTime += time.Duration(s.End - s.Start)
		}
	}
	var patched, rebuilt, merge []float64
	for _, q := range queries {
		lat := ms(tr.dur(q.span))
		switch {
		case q.resp.Patched:
			patched = append(patched, lat)
		case !q.resp.Cached:
			rebuilt = append(rebuilt, lat)
		}
		if q.resp.MergeMillis > 0 {
			merge = append(merge, q.resp.MergeMillis)
		}
	}
	rp.put("server.handler_us_per_pt", "us", float64(writeTime)/1e3/float64(writePts))
	rp.put("server.query_patched_p50_ms", "ms", percentileOr0(patched, 0.5))
	rp.put("server.query_rebuilt_p50_ms", "ms", percentileOr0(rebuilt, 0.5))
	rp.put("server.merge_ms_p50", "ms", percentileOr0(merge, 0.5))
	rp.put("server.patch_ratio", "ratio", ratio(st.DeltaPatches, st.DeltaPatches+st.FullRebuilds))
	rp.put("server.delta_patches", "count", float64(st.DeltaPatches))
	rp.put("server.full_rebuilds", "count", float64(st.FullRebuilds))
	rp.put("server.memo_warm_starts", "count", float64(st.MemoWarmStarts))
	rp.put("server.sheds", "count", float64(st.IngestSheds+st.QuerySheds))
	return elapsed, nil
}

// bulkEndQuery is the id of the query that follows the bulk phase.
func (rp *replayer) bulkEndQuery() int {
	return len(rp.reqs) - 3*rp.w.ReplayRounds - 1
}

func percentileOr0(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, p)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// oneConnClient is a cluster.Client over one keep-alive connection, with
// no retries, so that every call is one round trip.
func oneConnClient(base string) *cluster.Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return cluster.NewClient(cluster.ClientConfig{BaseURL: base, HTTPClient: &http.Client{Transport: tr}, MaxRetries: -1})
}

// transportPass sends the ingest bodies to an in-memory server over
// loopback through cluster.Client. A wrapper around the handler opens a
// child span inside the client's, so the round trip's self time is the
// transport: connection, body transfer and response.
func (rp *replayer) transportPass() error {
	srv, err := server.New(server.Config{Shards: replayShards, MaxK: maxK})
	if err != nil {
		return err
	}
	defer srv.Close()
	root := rp.tr.begin("replay.transport", -1, -1)
	defer rp.tr.end(root)
	var curSpan, curReq atomic.Int64 // the client span the handler runs under, and its request
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := rp.tr.begin("server.handler", int(curSpan.Load()), int(curReq.Load()))
		h.ServeHTTP(w, r)
		rp.tr.end(id)
	}))
	defer ts.Close()
	c := oneConnClient(ts.URL)
	ctx := context.Background()
	n := 0
	for _, r := range rp.reqs {
		if r.kind != kindIngest {
			continue
		}
		id := rp.tr.begin("server.roundtrip", root, r.id)
		curSpan.Store(int64(id))
		curReq.Store(int64(r.id))
		_, err := c.IngestBody(ctx, r.body)
		rp.tr.end(id)
		if err != nil {
			return fmt.Errorf("transport: request %d: %w", r.id, err)
		}
		n++
	}
	rp.requests += n
	self := selfTimes(rp.tr.spans)
	var transport time.Duration
	for i, s := range rp.tr.spans {
		if s.Name == "server.roundtrip" && s.Parent == root {
			transport += self[i]
		}
	}
	rp.put("server.transport_ms", "ms", ms(transport)/float64(n))
	return nil
}

// deal splits pts across the shards round-robin, continuing from *next
// the way the server deals ingest batches.
func deal(pts []divmax.Vector, next *int) [][]divmax.Vector {
	sub := make([][]divmax.Vector, replayShards)
	for i, p := range pts {
		s := (*next + i) % replayShards
		sub[s] = append(sub[s], p)
	}
	*next += len(pts)
	return sub
}

// familyCache mirrors the server's merge cache for one core-set family:
// the merged union of the shards' core-sets, its solve engine, and each
// shard's snapshot position.
type familyCache struct {
	union  []divmax.Vector
	engine *sequential.Engine
	gens   []uint64
	poss   []int
}

// coresetPass folds the schedule into per-shard dynamic core-sets of
// both families (points dealt round-robin, as the server deals them),
// deletes on every shard, and at every query merges, patches or
// rebuilds the solve engine and solves — timing streamalg, sequential
// and the metric kernels under them.
func (rp *replayer) coresetPass() error {
	root := rp.tr.begin("replay.coreset", -1, -1)
	defer rp.tr.end(root)
	var fams [2][]divmax.StreamCoreset[divmax.Vector] // edge, proxy per shard
	for s := 0; s < replayShards; s++ {
		fams[0] = append(fams[0], divmax.NewDynamicStreamCoreset(divmax.RemoteEdge, maxK, kprime, spares, divmax.Euclidean))
		fams[1] = append(fams[1], divmax.NewDynamicStreamCoreset(divmax.RemoteClique, maxK, kprime, spares, divmax.Euclidean))
	}
	var caches [2]*familyCache
	var next, foldPts, delPts, minsqPts, fillPairs, relaxPts int
	for _, r := range rp.reqs {
		switch r.kind {
		case kindIngest:
			for s, batch := range deal(r.pts, &next) {
				if len(batch) == 0 {
					continue
				}
				// The streaming centre scan: each point against the
				// shard's current core-set.
				centers, _ := metric.FlattenVectors(fams[0][s].Coreset())
				if centers.Len() > 0 {
					rp.tr.do("metric.minsq", root, r.id, func() {
						for _, p := range batch {
							centers.MinSq(p)
						}
					})
					minsqPts += len(batch)
				}
				rp.tr.do("streamalg.fold", root, r.id, func() {
					fams[0][s].ProcessBatch(batch)
					fams[1][s].ProcessBatch(batch)
				})
			}
			foldPts += len(r.pts)
		case kindDelete:
			rp.tr.do("streamalg.delete", root, r.id, func() {
				for _, p := range r.pts {
					for s := 0; s < replayShards; s++ {
						fams[0][s].Delete(p)
						fams[1][s].Delete(p)
					}
				}
			})
			delPts += len(r.pts)
		case kindQuery:
			m, err := divmax.ParseMeasure(r.measure)
			if err != nil {
				return err
			}
			f := 0
			if m.NeedsInjectiveProxy() {
				f = 1
			}
			caches[f] = rp.mergeAndSolve(root, r.id, m, fams[f], caches[f])
			union := caches[f].union
			pts, _ := metric.FlattenVectors(union)
			n := pts.Len()
			if n < 2 {
				continue
			}
			rows := min(fillRows, n)
			dst := make([]float64, rows*n)
			rp.tr.do("metric.fill", root, r.id, func() { pts.FillSqRows(0, rows, dst, 1) })
			fillPairs += rows * n
			minSq := make([]float64, n)
			for i := range minSq {
				minSq[i] = math.Inf(1)
			}
			assign := make([]int, n)
			rp.tr.do("metric.relax", root, r.id, func() { pts.RelaxMinSqRange(0, n, 0, 0, minSq, assign, -1, -1) })
			relaxPts += n
		}
	}
	rp.requests += len(rp.reqs)

	var restructures, coresetPts int
	for _, fam := range fams {
		for _, sc := range fam {
			restructures += int(sc.SnapshotSince(0, -1).Gen)
			coresetPts += len(sc.Coreset())
		}
	}
	per := func(name string, n int, scale float64) float64 {
		total, _ := rp.spanStats(root, name)
		if n == 0 {
			return 0
		}
		return float64(total) / scale / float64(n)
	}
	mean := func(name string) float64 {
		total, n := rp.spanStats(root, name)
		if n == 0 {
			return 0
		}
		return ms(total) / float64(n)
	}
	rp.put("streamalg.fold_us_per_pt", "us", per("streamalg.fold", foldPts, 1e3))
	rp.put("streamalg.delete_us_per_pt", "us", per("streamalg.delete", delPts, 1e3))
	rp.put("streamalg.restructures", "count", float64(restructures))
	rp.put("streamalg.coreset_points", "count", float64(coresetPts))
	rp.put("sequential.build_ms", "ms", mean("sequential.build"))
	rp.put("sequential.append_ms", "ms", mean("sequential.append"))
	rp.put("sequential.solve_ms", "ms", mean("sequential.solve"))
	rp.put("metric.fill_ns_per_pair", "ns", per("metric.fill", fillPairs, 1))
	rp.put("metric.relax_ns_per_pt", "ns", per("metric.relax", relaxPts, 1))
	rp.put("metric.minsq_ns_per_pt", "ns", per("metric.minsq", minsqPts, 1))
	return nil
}

// mergeAndSolve brings c up to date with the shards the way the
// server's merge cache does — append the per-shard deltas to the union
// and extend the engine while every shard serves a pure delta within
// the budget, rebuild from full snapshots otherwise — and solves.
func (rp *replayer) mergeAndSolve(root, req int, m divmax.Measure, shards []divmax.StreamCoreset[divmax.Vector], c *familyCache) *familyCache {
	if c == nil {
		c = &familyCache{gens: make([]uint64, len(shards)), poss: make([]int, len(shards))}
		for i := range c.poss {
			c.poss[i] = -1
		}
	}
	var delta []divmax.Vector
	partial := c.engine != nil
	deltas := make([]divmax.CoresetDelta[divmax.Vector], len(shards))
	for s, sc := range shards {
		deltas[s] = sc.SnapshotSince(c.gens[s], c.poss[s])
		partial = partial && deltas[s].Partial
		delta = append(delta, deltas[s].Points...)
	}
	if partial && float64(len(delta)) <= deltaBudget*float64(len(c.union)) {
		if len(delta) > 0 {
			rp.tr.do("sequential.append", root, req, func() { sequential.AppendEngine(c.engine, delta) })
			c.union = append(c.union, delta...)
		}
	} else {
		c.union = c.union[:0]
		for s, sc := range shards {
			if deltas[s].Partial {
				deltas[s] = sc.SnapshotSince(0, -1)
			}
			c.union = append(c.union, deltas[s].Points...)
		}
		rp.tr.do("sequential.build", root, req, func() { c.engine = sequential.BuildEngine(c.union, divmax.Euclidean, 0) })
	}
	for s, d := range deltas {
		c.gens[s], c.poss[s] = d.Gen, d.Pos
	}
	if c.engine != nil {
		rp.tr.do("sequential.solve", root, req, func() { sequential.SolveEngineIdx(m, c.engine, maxK) })
	}
	return c
}

// walPass appends every write, dealt to per-shard logs the way the
// server deals it (ingests round-robin, deletes to every shard), under
// the default fsync policy, and replays the logs back.
func (rp *replayer) walPass() error {
	root := rp.tr.begin("replay.wal", -1, -1)
	defer rp.tr.end(root)
	logs := make([]*wal.Log, replayShards)
	last := make([]uint64, replayShards)
	for s := range logs {
		l, err := wal.Open(wal.Options{Dir: filepath.Join(rp.dir, fmt.Sprintf("wal-%d", s)), Sync: wal.SyncInterval})
		if err != nil {
			return err
		}
		defer func() { _ = l.Close(false) }() // a scratch log; nothing reads it after the pass
		logs[s] = l
	}
	appendTo := func(s int, kind wal.Kind, pts []divmax.Vector, req int) error {
		var err error
		rp.tr.do("wal.append", root, req, func() { last[s], err = logs[s].Append(kind, pts, nil) })
		return err
	}
	var next, appended int
	for _, r := range rp.reqs {
		switch r.kind {
		case kindIngest:
			for s, batch := range deal(r.pts, &next) {
				if len(batch) > 0 {
					if err := appendTo(s, wal.KindIngest, batch, r.id); err != nil {
						return err
					}
				}
			}
			appended += len(r.pts)
		case kindDelete:
			for s := range logs {
				if err := appendTo(s, wal.KindDelete, r.pts, r.id); err != nil {
					return err
				}
			}
			appended += len(r.pts) * replayShards
		}
	}
	var logBytes int64
	var replayed int
	for s, l := range logs {
		b, _ := l.Stats()
		logBytes += b
		var err error
		rp.tr.do("wal.replay", root, -1, func() {
			err = l.Replay(1, last[s], func(rec wal.Record) error {
				replayed += len(rec.Points)
				return nil
			})
		})
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
	}
	if replayed != appended {
		return fmt.Errorf("wal: replayed %d points, appended %d", replayed, appended)
	}
	appendTime, _ := rp.spanStats(root, "wal.append")
	replayTime, _ := rp.spanStats(root, "wal.replay")
	rp.put("wal.append_us_per_pt", "us", float64(appendTime)/1e3/float64(appended))
	rp.put("wal.bytes_per_pt", "bytes", float64(logBytes)/float64(appended))
	rp.put("wal.replay_ms", "ms", ms(replayTime))
	return nil
}

// recoveryPass feeds every write to a durable server, crashes it, and
// times the restart from construction until it reports ready.
func (rp *replayer) recoveryPass() error {
	root := rp.tr.begin("replay.recovery", -1, -1)
	defer rp.tr.end(root)
	cfg := server.Config{Shards: replayShards, MaxK: maxK, DataDir: filepath.Join(rp.dir, "recovery"),
		Fsync: wal.SyncInterval, CheckpointEvery: -1}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	h := srv.Handler()
	n := 0
	for _, r := range rp.reqs {
		if r.kind == kindQuery {
			continue
		}
		method, path := reqTarget(r)
		if err := serve(h, method, path, r.body, &map[string]any{}); err != nil {
			srv.CloseAbrupt()
			return fmt.Errorf("recovery: request %d: %w", r.id, err)
		}
		n++
	}
	rp.requests += n
	srv.CloseAbrupt()
	id := rp.tr.begin("wal.recovery", root, -1)
	srv, err = server.New(cfg)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer srv.Close()
	for deadline := time.Now().Add(2 * time.Minute); !srv.Ready(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("recovery: not ready after 2m")
		}
	}
	rp.tr.end(id)
	var st api.StatsResponse
	if err := serve(srv.Handler(), http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return err
	}
	var replayed int64
	for _, sh := range st.Shards {
		replayed += sh.ReplayedPoints
	}
	rp.put("wal.recovery_s", "s", rp.tr.dur(id).Seconds())
	rp.put("wal.replayed_points", "count", float64(replayed))
	return nil
}

// clusterPass replays the schedule through an in-process coordinator
// over two one-shard workers, fetches each worker's snapshot after
// every query the way the coordinator does, and sends every ingest body
// once more straight to a lone worker to price the coordinator's hop.
func (rp *replayer) clusterPass() error {
	h, err := cluster.StartCluster(cluster.HarnessOptions{
		Workers:     2,
		Worker:      server.Config{Shards: 1, MaxK: maxK},
		Coordinator: cluster.Config{MaxK: maxK},
	})
	if err != nil {
		return err
	}
	defer h.Close()
	if err := h.WaitWorkersReady(time.Minute); err != nil {
		return err
	}
	direct, err := server.New(server.Config{Shards: 1, MaxK: maxK})
	if err != nil {
		return err
	}
	defer direct.Close()
	dts := httptest.NewServer(direct.Handler())
	defer dts.Close()

	root := rp.tr.begin("replay.cluster", -1, -1)
	defer rp.tr.end(root)
	ctx := context.Background()
	coord, lone := oneConnClient(h.CoordServer.URL), oneConnClient(dts.URL)
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	type snapKey struct {
		worker int
		family string
	}
	cursors := map[snapKey]*api.SnapshotCursor{}
	var snapFull, snapDelta, decode time.Duration
	var nFull, nDelta, snapBytes, ingests int
	for _, r := range rp.reqs {
		var err error
		switch r.kind {
		case kindIngest:
			rp.tr.do("cluster.ingest", root, r.id, func() { _, err = coord.IngestBody(ctx, r.body) })
			if err == nil {
				rp.tr.do("cluster.direct_ingest", root, r.id, func() { _, err = lone.IngestBody(ctx, r.body) })
			}
			ingests++
		case kindDelete:
			rp.tr.do("cluster.delete", root, r.id, func() { _, err = coord.Delete(ctx, r.pts, false) })
		case kindQuery:
			rp.tr.do("cluster.query", root, r.id, func() { _, err = coord.Query(ctx, r.measure, maxK) })
			family := "edge"
			if r.measure == "remote-clique" {
				family = "proxy"
			}
			for wi, wn := range h.Workers {
				key := snapKey{wi, family}
				body, merr := json.Marshal(api.SnapshotRequest{Family: family, Cursor: cursors[key]})
				if merr != nil {
					return merr
				}
				var raw []byte
				id := rp.tr.do("cluster.snapshot", root, r.id, func() { raw, err = post(hc, wn.URL()+"/v1/snapshot", body) })
				if err != nil {
					break
				}
				var snap api.SnapshotResponse
				did := rp.tr.do("api.snapshot_decode", root, r.id, func() { err = json.Unmarshal(raw, &snap) })
				if err != nil {
					break
				}
				decode += rp.tr.dur(did)
				snapBytes += len(raw)
				if snap.Partial {
					snapDelta += rp.tr.dur(id)
					nDelta++
				} else {
					snapFull += rp.tr.dur(id)
					nFull++
				}
				cursors[key] = &snap.Cursor
			}
		}
		if err != nil {
			return fmt.Errorf("cluster: request %d: %w", r.id, err)
		}
	}
	rp.requests += len(rp.reqs) + ingests
	st, err := coord.Stats(ctx)
	if err != nil {
		return err
	}
	var maxRouted, sumRouted float64
	var hedges, retries int64
	for _, wk := range st.Workers {
		maxRouted = math.Max(maxRouted, float64(wk.IngestedPoints))
		sumRouted += float64(wk.IngestedPoints)
		hedges += wk.HedgedRequests
		retries += wk.Retries
	}
	coordIngest, _ := rp.spanStats(root, "cluster.ingest")
	directIngest, _ := rp.spanStats(root, "cluster.direct_ingest")
	meanMS := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return ms(d) / float64(n)
	}
	rp.put("api.snapshot_decode_ms", "ms", meanMS(decode, nFull+nDelta))
	rp.put("cluster.snapshot_full_ms", "ms", meanMS(snapFull, nFull))
	rp.put("cluster.snapshot_delta_ms", "ms", meanMS(snapDelta, nDelta))
	rp.put("cluster.snapshot_bytes", "bytes", float64(snapBytes)/float64(max(1, nFull+nDelta)))
	rp.put("cluster.route_overhead_ms", "ms", meanMS(coordIngest-directIngest, ingests))
	rp.put("cluster.patch_ratio", "ratio", ratio(st.DeltaPatches, st.DeltaPatches+st.FullRebuilds))
	rp.put("cluster.skew", "ratio", maxRouted/(sumRouted/float64(max(1, len(st.Workers)))))
	rp.put("cluster.hedges", "count", float64(hedges))
	rp.put("cluster.retries", "count", float64(retries))
	return nil
}

// post sends a JSON body and returns the raw 200 answer.
func post(hc *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}
