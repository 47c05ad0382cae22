package main

import (
	"bytes"
	"testing"
)

// tinyWorkload is a scaled-down durable workload for tests.
var tinyWorkload = workload{Name: "tiny", Dim: 8, Mode: modeWAL, Prefill: 3000, Batch: 500, BulkShare: 0.5,
	ChurnIngest: 32, ChurnDelete: 8, ReplayBulk: 2000, ReplayRounds: 30}

func TestScheduleIsByteIdenticalForASeed(t *testing.T) {
	for _, w := range append([]workload{tinyWorkload}, workloads...) {
		w.Prefill, w.ReplayBulk, w.ReplayRounds = min(w.Prefill, 4000), min(w.ReplayBulk, 4000), min(w.ReplayRounds, 40)
		a, b, other := schedule(w, 7), schedule(w, 7), schedule(w, 8)
		if len(a) != len(b) {
			t.Fatalf("%s: %d and %d requests", w.Name, len(a), len(b))
		}
		differs := false
		for i := range a {
			if a[i].kind != b[i].kind || a[i].measure != b[i].measure || !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: request %d differs between two schedules of one seed", w.Name, i)
			}
			differs = differs || !bytes.Equal(a[i].body, other[i].body)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave identical bodies", w.Name)
		}
	}
}

func TestDeletesNameEarlierLiveValues(t *testing.T) {
	g := newGen(3, 4)
	g.ingest(100)
	seen := map[[4]float64]bool{}
	for r := range 50 {
		rd := g.round(r, tinyWorkload)
		for _, v := range rd.dels {
			key := [4]float64{v[0], v[1], v[2], v[3]}
			if seen[key] {
				t.Fatalf("round %d deletes %v a second time", r, v)
			}
			seen[key] = true
			for _, in := range rd.ins {
				if equalVec(in, v) {
					t.Fatalf("round %d deletes a point it ingests", r)
				}
			}
		}
	}
	if want := 100 + 50*(tinyWorkload.ChurnIngest-tinyWorkload.ChurnDelete); len(g.liveSet()) != want {
		t.Fatalf("live set has %d values, want %d", len(g.liveSet()), want)
	}
}

func TestReplayCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the tiny workload twice")
	}
	var runs [2]result
	for i := range runs {
		res, err := runTraced(t.TempDir(), tinyWorkload, 5)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	for _, name := range []string{"server.delta_patches", "server.full_rebuilds", "wal.replayed_points", "cluster.patch_ratio",
		"streamalg.restructures", "streamalg.coreset_points", "api.body_bytes_per_pt", "wal.bytes_per_pt"} {
		a, okA := runs[0].Metrics[name]
		b, okB := runs[1].Metrics[name]
		if !okA || !okB {
			t.Errorf("%s missing from a traced run", name)
			continue
		}
		if a.Value != b.Value {
			t.Errorf("%s: %v then %v on the same seed", name, a.Value, b.Value)
		}
	}
	if runs[0].Metrics["server.delta_patches"].Value == 0 || runs[0].Metrics["wal.replayed_points"].Value == 0 {
		t.Errorf("tiny replay exercised nothing: %v", runs[0].Metrics)
	}
}
