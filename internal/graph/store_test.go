package graph

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// hookRecord is one call a recordingHook saw.
type hookRecord struct {
	seq, prevVersion uint64
	d                Delta
}

// recordingHook is a Durability that remembers every append.
type recordingHook struct{ recs []hookRecord }

func (h *recordingHook) Append(seq, prevVersion uint64, d Delta) error {
	h.recs = append(h.recs, hookRecord{seq, prevVersion, d})
	return nil
}

// TestStoreApplyCostFlatWithHistory pins that a Store keeps no per-delta
// history in memory: the write-ahead log is the only delta history, so
// the heap cost of one Apply must not grow with the number of deltas
// applied before it.
func TestStoreApplyCostFlatWithHistory(t *testing.T) {
	s := NewStore(deltaTestGraph(t))
	apply := func(i int) {
		if _, err := s.Apply(Delta{Source: "amigo", Ops: []Op{
			{Kind: OpSetNodeP, Node: NodeRef{"G", "g1"}, P: 0.1 + float64(i%80)*0.01},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		apply(i)
	}
	const measured = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		apply(i)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / measured; per >= 4<<10 {
		t.Errorf("Apply after 2000 deltas allocates %d B/op, want < 4096", per)
	}
}

// The fuzz alphabet: node refs (the seed graph's, the colliding pair
// ("a/b","c")/("a","b/c"), a fresh node and an incomplete ref),
// relationship kinds (including a missing one), sources (including a
// missing one) and probabilities (including out-of-range values and NaN).
var (
	fuzzRefs = []NodeRef{
		{"P", "p1"}, {"P", "p2"}, {"G", "g1"}, {"G", "g2"}, {"F", "f1"},
		{"a/b", "c"}, {"a", "b/c"}, {"G", "new"}, {"", ""},
	}
	fuzzRels    = []string{"link", "ann", "x", ""}
	fuzzSources = []string{"entrez", "amigo", ""}
	fuzzProbs   = []float64{0, 0.25, 0.5, 0.9, 1, -0.5, 1.5, math.NaN()}
)

// fuzzSeedGraph is deltaTestGraph plus the record ("a/b","c"), so ops on
// ("a","b/c") must add a node instead of revising it.
func fuzzSeedGraph(t *testing.T) *Graph {
	g := deltaTestGraph(t)
	g.AddNode("a/b", "c", 0.5)
	return g
}

// decodeDeltas turns fuzz input into at most 16 deltas. A delta is a
// header byte (source, then op count 0–4 in bits 2–4) followed by six
// bytes per op: kind (0 and 5 are unknown kinds), node, from, to, rel, p.
func decodeDeltas(data []byte) []Delta {
	var out []Delta
	for len(data) > 0 && len(out) < 16 {
		h := data[0]
		data = data[1:]
		d := Delta{Source: fuzzSources[int(h)%len(fuzzSources)]}
		for n := int(h>>2) % 5; n > 0 && len(data) >= 6; n-- {
			b := data[:6]
			data = data[6:]
			d.Ops = append(d.Ops, Op{
				Kind: OpKind(b[0] % 6),
				Node: fuzzRefs[int(b[1])%len(fuzzRefs)],
				From: fuzzRefs[int(b[2])%len(fuzzRefs)],
				To:   fuzzRefs[int(b[3])%len(fuzzRefs)],
				Rel:  fuzzRels[int(b[4])%len(fuzzRels)],
				P:    fuzzProbs[int(b[5])%len(fuzzProbs)],
			})
		}
		out = append(out, d)
	}
	return out
}

// mapModel is the reference semantics of an accepted delta: upserts over
// plain maps keyed by node ref and by (from, to, rel), in insertion
// order.
type mapModel struct {
	nodes  []jsonNode
	edges  []jsonEdge
	nodeAt map[NodeRef]int
	edgeAt map[[3]string]int
}

func newMapModel(g *Graph) *mapModel {
	m := &mapModel{nodeAt: map[NodeRef]int{}, edgeAt: map[[3]string]int{}}
	for _, n := range g.nodes {
		m.node(NodeRef{n.Kind, n.Label}, n.P, true)
	}
	for _, e := range g.edges {
		m.edge(g.nodes[e.From], g.nodes[e.To], e.Kind, e.Q)
	}
	return m
}

func (m *mapModel) node(r NodeRef, p float64, create bool) {
	if i, ok := m.nodeAt[r]; ok {
		m.nodes[i].P = p
	} else if create {
		m.nodeAt[r] = len(m.nodes)
		m.nodes = append(m.nodes, jsonNode{Kind: r.Kind, Label: r.Label, P: p})
	}
}

func (m *mapModel) edge(from, to Node, rel string, q float64) {
	key := [3]string{from.Kind + "\x00" + from.Label, to.Kind + "\x00" + to.Label, rel}
	if i, ok := m.edgeAt[key]; ok {
		m.edges[i].Q = q
		return
	}
	m.edgeAt[key] = len(m.edges)
	m.edges = append(m.edges, jsonEdge{
		From: int32(m.nodeAt[NodeRef{from.Kind, from.Label}]),
		To:   int32(m.nodeAt[NodeRef{to.Kind, to.Label}]),
		Kind: rel, Q: q,
	})
}

func (m *mapModel) apply(d Delta) {
	for _, op := range d.Ops {
		switch op.Kind {
		case OpUpsertNode, OpSetNodeP:
			m.node(op.Node, op.P, op.Kind == OpUpsertNode)
		case OpUpsertEdge, OpSetEdgeQ:
			m.edge(Node{Kind: op.From.Kind, Label: op.From.Label}, Node{Kind: op.To.Kind, Label: op.To.Label}, op.Rel, op.P)
		}
	}
}

func (m *mapModel) encode(t *testing.T) []byte {
	b, err := json.Marshal(jsonGraph{Nodes: m.nodes, Edges: m.edges})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func encodeGraph(t *testing.T, g *Graph) []byte {
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func encodeStore(t *testing.T, s *Store) []byte {
	var b []byte
	s.View(func(g *Graph) { b = encodeGraph(t, g) })
	return b
}

// FuzzStoreApply applies one delta sequence four ways — a volatile Store,
// a Store with a recording durability hook, a Graph through ApplyDelta
// and a map model of the accepted ops — and requires them to agree: the
// same accept/reject decision and DeltaResult per delta, codec-identical
// graphs after every delta, no change on a rejected delta, and a hook
// that saw exactly the accepted deltas with contiguous seq and the
// version each applied on top of.
func FuzzStoreApply(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		volatile := NewStore(fuzzSeedGraph(t))
		hook := &recordingHook{}
		durable := NewStore(fuzzSeedGraph(t))
		durable.SetDurability(hook)
		direct := fuzzSeedGraph(t)
		model := newMapModel(direct)
		var accepted uint64
		for i, d := range decodeDeltas(data) {
			before, prevVersion := encodeGraph(t, direct), direct.Version()
			r1, err1 := volatile.Apply(d)
			r2, err2 := durable.Apply(d)
			r3, err3 := direct.ApplyDelta(d)
			if (err1 == nil) != (err2 == nil) || (err1 == nil) != (err3 == nil) {
				t.Fatalf("delta %d %+v: errors disagree: volatile %v, durable %v, direct %v", i, d, err1, err2, err3)
			}
			if err1 == nil {
				if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(r1, r3) {
					t.Fatalf("delta %d %+v: results disagree:\n%+v\n%+v\n%+v", i, d, r1, r2, r3)
				}
				accepted++
				model.apply(d)
			} else if got := encodeGraph(t, direct); string(got) != string(before) || direct.Version() != prevVersion {
				t.Fatalf("delta %d %+v rejected (%v) but changed the graph", i, d, err1)
			}
			if n := uint64(len(hook.recs)); n != accepted ||
				err1 == nil && !reflect.DeepEqual(hook.recs[n-1], hookRecord{accepted, prevVersion, d}) {
				t.Fatalf("delta %d %+v (err %v): hook saw %+v after %d accepted deltas", i, d, err1, hook.recs, accepted)
			}
			want := encodeGraph(t, direct)
			for name, got := range map[string][]byte{
				"volatile": encodeStore(t, volatile),
				"durable":  encodeStore(t, durable),
				"model":    model.encode(t),
			} {
				if string(got) != string(want) {
					t.Fatalf("delta %d %+v: %s graph\n%s\nwant\n%s", i, d, name, got, want)
				}
			}
		}
		if st := durable.Stat(); st.Deltas != accepted {
			t.Fatalf("store counted %d deltas, %d accepted", st.Deltas, accepted)
		}
	})
}
