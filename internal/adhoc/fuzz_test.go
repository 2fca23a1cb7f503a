package adhoc

import (
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// fuzzNetOps bounds one input's event count, and fuzzNetIDs the node
// IDs it draws from, so leaves and rejoins reuse slots often.
const (
	fuzzNetOps = 64
	fuzzNetIDs = 12
)

// FuzzNetworkEvents decodes bytes into join, leave, move and power
// events and drives New() and NewScan() side by side. Each event takes
// five bytes: kind, node, x, y, range. Positions lie on a 2.5 m lattice,
// so nodes often share a position; a power byte with the high bit set
// doubles the node's range (up to 120 m, beyond the lattice's 97.5 m
// side), which makes the self-sizing grid rebuild. Before every join and
// move, the scan network's PartitionFor (without 4n) at the event
// configuration is the oracle: the partition each network's JoinPart or
// Move returns must equal it. After every event the networks agree on
// errors and edges, each passes CheckConsistency, and the New()
// network's conflict index, built before the first event, matches a
// recount.
func FuzzNetworkEvents(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 10, 0, 1, 1, 4, 11, 0, 2, 0, 6, 3, 1, 3, 0, 0, 2, 0, 1, 1, 0x88, 1, 0, 0, 0, 0, 4, 1, 1, 1, 4})
	f.Add([]byte{0, 4, 4, 8, 0, 1, 4, 4, 8, 0, 2, 4, 4, 3, 1, 1, 0, 0, 0, 0, 1, 5, 5, 8, 3, 0, 0, 0, 0x81, 2, 2, 30, 30, 0})
	f.Add([]byte{0, 0, 0, 2, 0, 1, 3, 0, 31, 3, 1, 0, 0, 0xff, 3, 0, 0, 0, 0x90, 2, 0, 39, 39, 0, 2, 1, 0, 0, 0, 3, 1, 0, 0, 1})
	for seed := uint64(1); seed <= 4; seed++ { // full-length random scripts
		rng, script := xrand.New(seed), make([]byte, 5*fuzzNetOps)
		for i := range script {
			script[i] = byte(rng.Intn(256))
		}
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		grid, scan := New(), NewScan()
		nets := []*Network{grid, scan}
		names := []string{"New", "NewScan"}
		grid.ConflictGraph()
		ops = ops[:min(len(ops), 5*fuzzNetOps)]
		for step := 0; len(ops) >= 5; step, ops = step+1, ops[5:] {
			id := graph.NodeID(ops[1] % fuzzNetIDs)
			pos := geom.Point{X: 2.5 * float64(ops[2]%40), Y: 2.5 * float64(ops[3]%40)}
			r := 2 * float64(ops[4]%32)
			cur, present := scan.Config(id)
			var ev func(*Network) (Partition, error)
			var want *Partition
			switch ops[0] % 4 {
			case 0:
				cfg := Config{Pos: pos, Range: r}
				ev = func(n *Network) (Partition, error) { return n.JoinPart(id, cfg) }
				if !present {
					want = localOracle(scan, id, cfg)
				}
			case 1:
				ev = func(n *Network) (Partition, error) { return Partition{}, n.Leave(id) }
			case 2:
				ev = func(n *Network) (Partition, error) { return n.Move(id, pos) }
				if present {
					want = localOracle(scan, id, Config{Pos: pos, Range: cur.Range})
				}
			default:
				if ops[4]&0x80 != 0 && cur.Range <= 60 {
					r = 2 * cur.Range
				}
				ev = func(n *Network) (Partition, error) { return Partition{}, n.SetRange(id, r) }
			}
			wantErr := present == (ops[0]%4 == 0) // a join needs an absent node, the rest a present one
			for i, n := range nets {
				p, err := ev(n)
				if (err != nil) != wantErr {
					t.Fatalf("step %d, %s: event on node %d (present %v) returned %v", step, names[i], id, present, err)
				}
				if want != nil && !reflect.DeepEqual(p, *want) {
					t.Fatalf("step %d, %s: partition %+v, scan oracle %+v", step, names[i], p, *want)
				}
				if err := n.CheckConsistency(); err != nil {
					t.Fatalf("step %d, %s: %v", step, names[i], err)
				}
			}
			if got, want := grid.Graph().Edges(), scan.Graph().Edges(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: New edges %v, scan %v", step, got, want)
			}
			checkConflictIndex(t, step, "New", grid)
		}
	})
}

// localOracle returns n's PartitionFor(id, cfg) without its 4n set.
func localOracle(n *Network, id graph.NodeID, cfg Config) *Partition {
	p := n.PartitionFor(id, cfg)
	p.None = nil
	return &p
}
