package main

import (
	"math/rand/v2"
	"strconv"

	"divmax"
)

// The data generator. Every request body the benchmark sends is made
// here from the seed alone: the same seed gives the same points, the
// same delete picks and the same bytes, in the end-to-end run and in
// the traced replay.
//
// Points come from a Gaussian mixture (well-separated clusters with
// unit spread) rather than the uniform cube, because uniform data in
// high dimension concentrates all pairwise distances and makes every
// answer look alike.

const (
	mixtureClusters = 64
	centerSpread    = 10.0
	maxK            = 16
)

// gen produces a workload's point stream and tracks which values are
// live (ingested and not yet deleted), so that deletes always name an
// earlier live value and the reference answer can be computed over the
// live set.
//
// Points are stored in pointer-free chunks rather than as one slice
// header each: a write-heavy run keeps millions of them, and the
// client's collector then has nothing to scan while the server works.
type gen struct {
	dim     int
	centers [][]float64
	pts     *rand.Rand  // point coordinates
	picks   *rand.Rand  // which live values a round deletes
	chunks  [][]float64 // point i is row i%chunkPoints of chunks[i/chunkPoints]
	n       int         // points drawn
	live    []int32     // indices of the live values, in no order
	pos     []int32     // pos[i] is point i's index in live, -1 once deleted
}

const chunkPoints = 4096

func newGen(seed uint64, dim int) *gen {
	g := &gen{
		dim:   dim,
		pts:   rand.New(rand.NewPCG(seed, 1)),
		picks: rand.New(rand.NewPCG(seed, 2)),
	}
	crng := rand.New(rand.NewPCG(seed, 3))
	for range mixtureClusters {
		c := make([]float64, dim)
		for j := range c {
			c[j] = centerSpread * (2*crng.Float64() - 1)
		}
		g.centers = append(g.centers, c)
	}
	return g
}

// point returns point i as a view into its chunk.
func (g *gen) point(i int32) divmax.Vector {
	row := int(i) % chunkPoints * g.dim
	return divmax.Vector(g.chunks[int(i)/chunkPoints][row : row+g.dim : row+g.dim])
}

// next draws one fresh point and records it as live.
func (g *gen) next() divmax.Vector {
	if g.n%chunkPoints == 0 {
		g.chunks = append(g.chunks, make([]float64, chunkPoints*g.dim))
	}
	i := int32(g.n)
	g.n++
	v := g.point(i)
	c := g.centers[g.pts.IntN(len(g.centers))]
	for j := range v {
		v[j] = c[j] + g.pts.NormFloat64()
	}
	g.pos = append(g.pos, int32(len(g.live)))
	g.live = append(g.live, i)
	return v
}

// ingest draws n fresh points.
func (g *gen) ingest(n int) []divmax.Vector {
	out := make([]divmax.Vector, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// pickDeletes removes n random live values (all of them when fewer are
// live) from the live set and returns them.
func (g *gen) pickDeletes(n int) []divmax.Vector {
	out := make([]divmax.Vector, 0, n)
	for len(out) < n && len(g.live) > 0 {
		idx := g.live[g.picks.IntN(len(g.live))]
		g.kill(idx)
		out = append(out, g.point(idx))
	}
	return out
}

// kill drops point idx from the live set.
func (g *gen) kill(idx int32) {
	p := g.pos[idx]
	last := g.live[len(g.live)-1]
	g.live[p] = last
	g.pos[last] = p
	g.live = g.live[:len(g.live)-1]
	g.pos[idx] = -1
}

// forget drops pts, the points most recently drawn, from the live set:
// the server refused them.
func (g *gen) forget(pts []divmax.Vector) {
	for i := g.n - len(pts); i < g.n; i++ {
		if g.pos[i] >= 0 {
			g.kill(int32(i))
		}
	}
}

// remove drops the live value equal to v, reporting whether there was
// one. It scans, so it is for the rare out-of-schedule delete.
func (g *gen) remove(v divmax.Vector) bool {
	for _, idx := range g.live {
		if equalVec(g.point(idx), v) {
			g.kill(idx)
			return true
		}
	}
	return false
}

// liveSet returns the live values in ingest order.
func (g *gen) liveSet() []divmax.Vector {
	out := make([]divmax.Vector, 0, len(g.live))
	for i := range g.n {
		if g.pos[i] >= 0 {
			out = append(out, g.point(int32(i)))
		}
	}
	return out
}

// round is one churn round: fresh points to ingest, earlier live values
// to delete (picked before the fresh points exist, so never one of
// them), and the measure of the round's query, alternating between the
// two core-set families.
type round struct {
	ins, dels []divmax.Vector
	measure   string
}

func (g *gen) round(r int, w workload) round {
	dels := g.pickDeletes(w.ChurnDelete)
	return round{ins: g.ingest(w.ChurnIngest), dels: dels, measure: churnMeasures[r%2]}
}

var churnMeasures = [2]string{"remote-edge", "remote-clique"}

// appendPointsBody appends the JSON body {"points":[[...],...]} for pts.
// Floats use the shortest representation that parses back to the same
// bits, so a delete by value names exactly the ingested value.
func appendPointsBody(dst []byte, pts []divmax.Vector) []byte {
	dst = append(dst, `{"points":[`...)
	for i, p := range pts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, x := range p {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, x, 'g', -1, 64)
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}"...)
}

func equalVec(a, b divmax.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
