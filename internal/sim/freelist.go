package sim

// FreeList is a capped stack of idle transaction records. A model layer
// that runs many short multi-stage operations (a die read, a SoC
// transfer, a fabric page copy) keeps each in-flight operation's state
// in a record whose stage methods are bound once, when the record is
// built, and handed to Schedule/Acquire in place of fresh closures. A
// finished record goes back on its owner's FreeList and the next
// operation takes it, so the steady state allocates nothing.
//
// The cap bounds what an idle owner pins: records beyond it are left to
// the garbage collector. Without it, an owner whose queue once ran deep
// (a saturated die) would keep that many records for the rest of the
// run.
type FreeList[T any] struct {
	items []*T
	max   int
	alloc func() *T
}

// NewFreeList returns an empty list that keeps at most max idle records
// and builds a new one with alloc when it has none.
func NewFreeList[T any](max int, alloc func() *T) FreeList[T] {
	if max < 0 || alloc == nil {
		panic("sim: invalid free list")
	}
	return FreeList[T]{max: max, alloc: alloc}
}

// Get pops an idle record, or builds one when none is kept.
func (l *FreeList[T]) Get() *T {
	n := len(l.items)
	if n == 0 {
		return l.alloc()
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return x
}

// Put keeps x for reuse unless the list is already at its cap. The
// caller must have cleared any reference x holds that should not outlive
// the operation (its completion callback).
func (l *FreeList[T]) Put(x *T) {
	if len(l.items) < l.max {
		l.items = append(l.items, x)
	}
}

// Len returns the number of idle records kept.
func (l *FreeList[T]) Len() int { return len(l.items) }
