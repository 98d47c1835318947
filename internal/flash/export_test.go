package flash

// LoseVPageWakeups makes the chip's next n register hand-offs free the
// register and leave the head waiter parked: the lost-wakeup mutation
// the vpage-waiters drain check must catch.
func LoseVPageWakeups(c *Chip, n int) { c.lostWakeups = n }
