package hashtable_test

import (
	"testing"

	"parahash/internal/dna"
	"parahash/internal/hashtable"
	"parahash/internal/hashtable/hashtabletest"
	"parahash/internal/msp"
)

// TestKmerTableConformance runs the shared KmerTable contract suite over
// every backend. CI runs this under the race detector; the suite's
// concurrent-insert subtest is the linearizability check for the lock-free
// and sharded paths.
func TestKmerTableConformance(t *testing.T) {
	for _, b := range hashtable.Backends() {
		b := b
		t.Run(string(b), func(t *testing.T) {
			hashtabletest.Run(t, func(t *testing.T, k, capacity int) hashtable.KmerTable {
				tab, err := hashtable.NewBackend(b, k, capacity)
				if err != nil {
					t.Fatalf("NewBackend(%s, %d, %d): %v", b, k, capacity, err)
				}
				return tab
			})
		})
	}
}

// TestParseBackend pins the CLI surface: every listed backend round-trips,
// the empty string selects the state-transfer reference, and unknown names
// are rejected with the valid set in the message.
func TestParseBackend(t *testing.T) {
	for _, b := range hashtable.Backends() {
		got, err := hashtable.ParseBackend(string(b))
		if err != nil || got != b {
			t.Errorf("ParseBackend(%q) = %v, %v", b, got, err)
		}
	}
	if got, err := hashtable.ParseBackend(""); err != nil || got != hashtable.BackendStateTransfer {
		t.Errorf("ParseBackend(\"\") = %v, %v, want statetransfer", got, err)
	}
	if _, err := hashtable.ParseBackend("cuckoo"); err == nil {
		t.Error("ParseBackend accepted unknown backend")
	}
}

// TestMemoryBytesForBackend checks each backend's admission-weight predictor
// agrees with what a freshly built table actually reports — the Step 2
// memory gate admits partitions by the prediction, so a divergence would
// let real residency exceed the budget.
func TestMemoryBytesForBackend(t *testing.T) {
	for _, b := range hashtable.Backends() {
		for _, k := range []int{27, 33} {
			tab, err := hashtable.NewBackend(b, k, 1<<14)
			if err != nil {
				t.Fatal(err)
			}
			predicted := hashtable.MemoryBytesForBackend(b, k, 1<<14)
			if got := tab.MemoryBytes(); got != predicted {
				t.Errorf("%s k=%d: MemoryBytes() = %d, predictor says %d", b, k, got, predicted)
			}
		}
	}
}

// TestInsertEdgeAllocs guards the table-level InsertEdge of every backend
// against boxing a fresh handle per call: the -host-calibration insert loop
// and any single-handle caller pay that allocation once per k-mer.
func TestInsertEdgeAllocs(t *testing.T) {
	edge := msp.KmerEdge{Canon: dna.KmerFromString("ACGTACGTACGTACGTACGTACGTACG"), Left: 1, Right: msp.NoBase}
	for _, b := range hashtable.Backends() {
		tab, err := hashtable.NewBackend(b, 27, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { _ = tab.InsertEdge(edge) }); got != 0 {
			t.Errorf("%s: InsertEdge makes %v allocations per call, want 0", b, got)
		}
	}
}

// TestRecycle pins when a table is reused: only for the same backend, k and
// rounded slot count; anything else gets a fresh table of the new shape.
func TestRecycle(t *testing.T) {
	edge := msp.KmerEdge{Canon: dna.KmerFromString("ACGTACGTACGTACGTACGTACGTACG"), Left: 1, Right: msp.NoBase}
	for _, b := range hashtable.Backends() {
		tab, err := hashtable.NewBackend(b, 27, 3000)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.InsertEdge(edge); err != nil {
			t.Fatal(err)
		}
		// 3000 and 4096 round to the same 4096 slots.
		same, err := hashtable.Recycle(tab, b, 27, 4096)
		if err != nil || same != tab || same.Len() != 0 || same.Metrics().Snapshot() != (hashtable.Snapshot{}) {
			t.Fatalf("%s: Recycle at the same shape = %p (Len %d), %v; want the Reset table %p", b, same, same.Len(), err, tab)
		}
		for _, c := range []struct {
			b        hashtable.Backend
			k, slots int
		}{{b, 27, 8192}, {b, 27, 2048}, {b, 29, 4096}, {other(b), 27, 4096}} {
			got, err := hashtable.Recycle(tab, c.b, c.k, c.slots)
			if err != nil {
				t.Fatal(err)
			}
			if got == tab || got.K() != c.k || got.Capacity() != c.slots {
				t.Errorf("%s: Recycle(%s, k=%d, %d) reused or mis-shaped the table (k=%d, capacity %d)",
					b, c.b, c.k, c.slots, got.K(), got.Capacity())
			}
		}
	}
	if _, err := hashtable.Recycle(nil, hashtable.BackendStateTransfer, 27, 0); err == nil {
		t.Error("Recycle accepted a zero capacity")
	}
}

// other returns a backend different from b.
func other(b hashtable.Backend) hashtable.Backend {
	if b == hashtable.BackendLockFree {
		return hashtable.BackendSharded
	}
	return hashtable.BackendLockFree
}
