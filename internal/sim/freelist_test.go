package sim

import "testing"

func TestFreeListReusesUpToCap(t *testing.T) {
	built := 0
	l := NewFreeList(2, func() *int { built++; return new(int) })
	a, b, c := l.Get(), l.Get(), l.Get()
	if built != 3 {
		t.Fatalf("built %d records for 3 Gets on an empty list", built)
	}
	l.Put(a)
	l.Put(b)
	l.Put(c) // over the cap: dropped
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want the cap 2", l.Len())
	}
	if got := l.Get(); got != b {
		t.Fatal("Get did not return the last record put")
	}
	if got := l.Get(); got != a || built != 3 {
		t.Fatal("Get built a record while one was kept")
	}
	l.Get()
	if built != 4 {
		t.Fatalf("built %d records, want 4 once the list ran dry", built)
	}
}
