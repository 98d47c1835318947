package flash_test

import (
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// wakeupRun replays a short SpGC trace on a small pnSSD whose chips each
// lose their next `lost` V-page hand-offs, drains the engine without
// verifying, and returns the most transfers ever parked on one chip
// for a register plus the checker's verdict.
func wakeupRun(t *testing.T, lost int) (int, error) {
	t.Helper()
	cfg := ssd.DefaultConfig()
	cfg.Channels, cfg.Ways = 4, 4
	cfg.Geometry.BlocksPerPlane = 8
	cfg.Geometry.PagesPerBlock = 16
	cfg.FTL.GCMode = ftl.GCSpatial
	cfg.FTL.GCThreshold = 0.3
	cfg.LogicalUtilization = 0.75
	cfg.Check = &check.Config{}
	s := ssd.New(ssd.ArchPnSSD, cfg)
	parked := 0
	s.Grid.ForEach(func(_ controller.ChipID, c *flash.Chip) { flash.LoseVPageWakeups(c, lost) })
	foot := s.Config.LogicalPages()
	s.Host.Warmup(foot)
	tr, err := workload.Named("rocksdb-1", foot, 600, 23)
	if err != nil {
		t.Fatal(err)
	}
	s.Host.MustReplay(tr.Requests)
	// Step the engine by hand so the peak of parked transfers is seen;
	// SSD.Run would also panic on the violation under test.
	for s.Engine.Pending() > 0 {
		s.Engine.Step()
		s.Grid.ForEach(func(_ controller.ChipID, c *flash.Chip) {
			if n := c.VPageWaiters(); n > parked {
				parked = n
			}
		})
	}
	return parked, s.VerifyInvariants()
}

// The lost-wakeup mutation test. A transfer that finds both V-page
// registers held parks until a commit hands it one, so a release that
// forgets the hand-off strands it in a drained engine instead of
// spinning. One lost wakeup per chip is repaired by the other register's
// release, which still hands off to the head waiter; losing one per
// register leaves waiters parked with both registers free, and the
// vpage-waiters drain check must report it.
func TestCheckerCatchesLostVPageWakeup(t *testing.T) {
	parked, err := wakeupRun(t, 0)
	if err != nil {
		t.Fatalf("unmutated run: %v", err)
	}
	if parked == 0 {
		t.Fatal("no transfer ever parked for a V-page register; mutation not exercised")
	}
	if _, err := wakeupRun(t, 1); err != nil {
		t.Fatalf("one lost wakeup per chip should be repaired by the other register: %v", err)
	}
	_, err = wakeupRun(t, flash.NumVPageRegisters)
	if err == nil || !strings.Contains(err.Error(), "vpage-waiters") {
		t.Fatalf("stranded V-page waiters not reported by the drain check: %v", err)
	}
}
