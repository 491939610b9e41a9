package walk

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"rewire/internal/graph"
)

type ctxKey struct{}

// failingSource fails every read of a negative id with an error naming it,
// and reports through its neighbor list which context value it was handed.
type failingSource struct{}

func (failingSource) Neighbors(graph.NodeID) []graph.NodeID { return nil }
func (failingSource) Degree(graph.NodeID) int               { return 0 }

func (failingSource) NeighborsContext(ctx context.Context, v graph.NodeID) ([]graph.NodeID, error) {
	if v < 0 {
		return nil, fmt.Errorf("read %d failed", v)
	}
	tag, _ := ctx.Value(ctxKey{}).(graph.NodeID)
	return []graph.NodeID{tag}, nil
}

// TestBoundFirstErrorWins races failing reads from many goroutines (run with
// -race): exactly one error is latched, later failures never replace it, and
// Bind both clears it and installs the context later reads use.
func TestBoundFirstErrorWins(t *testing.T) {
	b := NewBound(failingSource{})
	if got := b.Neighbors(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("unbound read = %v, want the background context", got)
	}
	var wg sync.WaitGroup
	for g := 1; g <= 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Neighbors(graph.NodeID(-g))
				_ = b.Err()
			}
		}(g)
	}
	wg.Wait()
	first := b.Err()
	if first == nil {
		t.Fatal("no error latched after failing reads")
	}
	if _, err := b.NeighborsContext(context.Background(), -99); err == nil || b.Err() != first {
		t.Fatalf("a later failure replaced the latched error %v with %v", first, b.Err())
	}

	b.Bind(context.WithValue(context.Background(), ctxKey{}, graph.NodeID(7)))
	if b.Err() != nil {
		t.Fatalf("Bind left error %v latched", b.Err())
	}
	if got := b.Neighbors(1); len(got) != 1 || got[0] != 7 {
		t.Fatalf("bound read = %v, want the bound context's tag 7", got)
	}
}
