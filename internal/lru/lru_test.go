package lru

import (
	"strconv"
	"sync"
	"testing"
)

func TestLRU(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted early")
	}
	c.Put("c", 3) // evicts b (a was just touched)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived past capacity")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatal("a lost")
	}
	c.Put("a", 10)
	if v, _ := c.Get("a"); v != 10 {
		t.Fatal("replace failed")
	}
	if got := c.GetOrCreate("d", func() int { return 4 }); got != 4 {
		t.Fatal("GetOrCreate insert failed")
	}
	if got := c.GetOrCreate("d", func() int { return 5 }); got != 4 {
		t.Fatal("GetOrCreate re-created an existing entry")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := New[string](0)
	c.Put("a", "x")
	c.Put("b", "y")
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (capacity clamps to 1)", c.Len())
	}
}

// TestLRUBoundedUnderFlood drives far more unique keys than capacity and
// checks memory stays bounded — the identity-flood scenario the Verifier's
// signer records adopt this package for.
func TestLRUBoundedUnderFlood(t *testing.T) {
	const capacity = 64
	c := New[int](capacity)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				k := "id-" + strconv.Itoa(w) + "-" + strconv.Itoa(i)
				c.GetOrCreate(k, func() int { return i })
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != capacity {
		t.Fatalf("len = %d after flood, want %d", c.Len(), capacity)
	}
}
