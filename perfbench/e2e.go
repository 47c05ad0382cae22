package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"divmax"
	"divmax/internal/api"
)

// setupReps is how many times a run boots and prefills a fresh
// deployment; setup_s is the median, and the last one goes on to the
// bulk and churn phases.
const setupReps = 3

// minLatencySamples is the fewest requests of one type a churn phase
// must time, so that ten samples lie beyond its p90.
const minLatencySamples = 100

// runE2E is the untraced run: the workload's phases against divmaxd
// child processes, through one closed-loop client. It returns an error
// only when the run could not be carried out; a wrong answer clears
// res.Correct and is explained on stderr.
func runE2E(bin, work string, w workload, seed uint64, seconds float64) (result, error) {
	res := result{Correct: true, Metrics: map[string]metricVal{}}
	check := func(ok bool, format string, args ...any) {
		if !ok {
			res.Correct = false
			logf("check failed: "+format, args...)
		}
	}
	g := newGen(seed, w.Dim)
	prefill := g.ingest(w.Prefill)
	var body []byte

	// Set-up: boot, prefill and one query per core-set family, timed
	// whole, several times.
	var setups []float64
	var dep *deployment
	var c *client
	for i := range setupReps {
		dir := filepath.Join(work, fmt.Sprintf("deploy-%d", i))
		start := time.Now()
		d, err := deploy(bin, w, dir)
		if err != nil {
			return res, err
		}
		cl := newClient(d.front.url())
		for lo := 0; lo < len(prefill) && err == nil; lo += w.Batch {
			body = appendPointsBody(body[:0], prefill[lo:min(lo+w.Batch, len(prefill))])
			_, err = cl.ingest(body)
		}
		for _, m := range churnMeasures {
			if err != nil {
				break
			}
			var q api.QueryResponse
			q, _, err = cl.query(m)
			check(err != nil || q.Processed == int64(len(prefill)), "set-up %s query processed %d of %d prefill points", m, q.Processed, len(prefill))
		}
		if err != nil {
			d.kill()
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			res.Attempted += cl.attempted
			cl.close()
			d.kill()
			if err := os.RemoveAll(dir); err != nil {
				return res, err
			}
			continue
		}
		dep, c = d, cl
	}
	defer dep.kill()

	// Bulk: large batches for the phase's share of the run; the clock
	// stops when a query reports every accepted point processed.
	accepted := int64(len(prefill))
	bulkPts := 0
	start := time.Now()
	for time.Since(start).Seconds() < seconds*w.BulkShare {
		pts := g.ingest(w.Batch)
		body = appendPointsBody(body[:0], pts)
		if _, err := c.ingest(body); err != nil {
			logf("bulk: %v", err)
			g.forget(pts)
			continue
		}
		bulkPts += len(pts)
	}
	accepted += int64(bulkPts)
	q, err := waitProcessed(c, accepted)
	bulkTime := time.Since(start).Seconds()
	if err != nil {
		return res, fmt.Errorf("bulk: %w", err)
	}
	check(q.Processed == accepted, "after bulk: processed %d, sent %d", q.Processed, accepted)
	ratioBulk := valueRatio(q, g)

	// Churn: closed-loop rounds of ingest, delete, stale query, for the
	// phase's share of the run and at least minLatencySamples rounds, so
	// that every p90 has ten samples beyond it even on a slow machine.
	var ingLat, delLat, qryLat []float64
	rounds := 0
	start = time.Now()
	for ; rounds < minLatencySamples || time.Since(start).Seconds() < seconds*(1-w.BulkShare); rounds++ {
		rd := g.round(rounds, w)
		body = appendPointsBody(body[:0], rd.ins)
		d, err := c.ingest(body)
		if err != nil {
			logf("churn: %v", err)
			g.forget(rd.ins)
		}
		ingLat = append(ingLat, ms(d))
		body = appendPointsBody(body[:0], rd.dels)
		d, err = c.remove(body)
		if err != nil {
			logf("churn: %v", err)
		}
		delLat = append(delLat, ms(d))
		_, d, err = c.query(rd.measure)
		if err != nil {
			logf("churn: %v", err)
		}
		qryLat = append(qryLat, ms(d))
	}
	churnTime := time.Since(start).Seconds()

	q, _, err = c.query("remote-edge")
	if err != nil {
		return res, fmt.Errorf("final query: %w", err)
	}
	ratioEnd := valueRatio(q, g)
	check(ratioBulk > 1.0/3 && ratioEnd > 1.0/3, "answer value far below the reference: ratios %.4f, %.4f", ratioBulk, ratioEnd)

	if w.Mode == modeWAL {
		recovery, err := checkRestart(dep, c, g, check)
		if err != nil {
			return res, err
		}
		logf("%s: restart recovered in %.3fs", w.Name, recovery.Seconds())
	}
	res.Attempted += c.attempted
	res.Failed += c.failed
	c.close()

	for _, kind := range []struct {
		name string
		lat  []float64
	}{{"ingest", ingLat}, {"delete", delLat}, {"query", qryLat}} {
		name, lat := kind.name, kind.lat
		tail, _ := tailPercentile(len(lat))
		logf("%s: %d %s requests, p50 %.3f ms, p90 %.3f ms, highest supported percentile p%g = %.3f ms",
			w.Name, len(lat), name, percentile(lat, 0.5), percentile(lat, 0.9), tail*100, percentile(lat, tail))
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metricVal{Value: v, Unit: unit} }
	put("setup_s", "s", median(setups))
	put("ingest_pts_per_s", "points/s", float64(bulkPts)/bulkTime)
	put("ops_per_s", "requests/s", float64(3*rounds)/churnTime)
	put("ingest_p50_ms", "ms", percentile(ingLat, 0.5))
	put("ingest_p90_ms", "ms", percentile(ingLat, 0.9))
	put("delete_p50_ms", "ms", percentile(delLat, 0.5))
	put("delete_p90_ms", "ms", percentile(delLat, 0.9))
	put("query_p50_ms", "ms", percentile(qryLat, 0.5))
	put("query_p90_ms", "ms", percentile(qryLat, 0.9))
	put("value_ratio_min", "ratio", math.Min(ratioBulk, ratioEnd))
	put("ok_frac", "ratio", 1-float64(res.Failed)/float64(res.Attempted))
	logf("%s: set-up runs %v s, bulk %d points in %.2fs, churn %d rounds in %.2fs, %d live points",
		w.Name, setups, bulkPts, bulkTime, rounds, churnTime, len(g.live))
	return res, nil
}

// waitProcessed queries until the answer reflects every accepted point.
func waitProcessed(c *client, accepted int64) (api.QueryResponse, error) {
	deadline := time.Now().Add(time.Minute)
	for {
		q, _, err := c.query("remote-edge")
		if err != nil || q.Processed >= accepted || time.Now().After(deadline) {
			return q, err
		}
		time.Sleep(time.Millisecond)
	}
}

// valueRatio divides a remote-edge answer's value by the sequential
// algorithm's value on the live set. The reference runs outside every
// timed phase. Remote-edge is the measure checked because its reference
// (farthest-first traversal) is linear in the live set, where the
// remote-clique reference is quadratic.
func valueRatio(q api.QueryResponse, g *gen) float64 {
	_, ref := divmax.MaxDiversity(divmax.RemoteEdge, g.liveSet(), maxK, divmax.Euclidean)
	return q.Value / ref
}

// checkRestart crashes the durable server and checks that the restarted
// one gives the answer the crashed one gave. The answer compared is one
// the server built from full shard snapshots (not a patched union, whose
// point order a cold start does not reproduce): deleting a point of the
// current answer evicts a core-set point, and the next query rebuilds.
func checkRestart(dep *deployment, c *client, g *gen, check func(bool, string, ...any)) (time.Duration, error) {
	var before api.QueryResponse
	for attempt := 0; ; attempt++ {
		q, _, err := c.query("remote-edge")
		if err != nil {
			return 0, fmt.Errorf("pre-kill query: %w", err)
		}
		if attempt > 0 && !q.Patched && !q.Cached {
			before = q
			break
		}
		if attempt == maxK {
			return 0, fmt.Errorf("pre-kill query: no delete of an answer point forced a rebuild")
		}
		v := q.Solution[0]
		g.remove(v)
		if _, err := c.remove(appendPointsBody(nil, []divmax.Vector{v})); err != nil {
			return 0, fmt.Errorf("pre-kill delete: %w", err)
		}
	}
	dep.front.kill()
	c.close()
	start := time.Now()
	if err := dep.front.restart(); err != nil {
		return 0, err
	}
	if err := dep.front.waitReady(2 * time.Minute); err != nil {
		return 0, err
	}
	recovery := time.Since(start)
	after, _, err := c.query("remote-edge")
	if err != nil {
		return 0, fmt.Errorf("post-restart query: %w", err)
	}
	same := after.Value == before.Value && len(after.Solution) == len(before.Solution)
	for i := 0; same && i < len(after.Solution); i++ {
		same = equalVec(after.Solution[i], before.Solution[i])
	}
	check(same, "answer after restart (value %v) differs from the answer before the kill (value %v)", after.Value, before.Value)
	check(after.Processed == before.Processed, "restart: processed %d, before the kill %d", after.Processed, before.Processed)
	return recovery, nil
}
