// Package controller implements the flash channel controllers and the
// architecture-specific interconnect fabrics of the paper: the
// conventional bus (baseSSD), the fat packetized bus (pSSD), the Omnibus
// 2D bus with its split control/data plane (pnSSD), and the
// Network-on-SSD mesh comparator.
//
// A Fabric hides topology behind four flash transactions — read, write,
// erase, and page copy — so the FTL and the host layer are identical
// across architectures, and every performance difference in the
// experiments emerges from the interconnect model.
package controller

import (
	"fmt"

	"repro/internal/flash"
	"repro/internal/sim"
)

// ChipID locates a chip in the channel×way grid: Channel is the row (the
// h-channel it shares) and Way is the column (the v-channel it shares).
type ChipID struct {
	Channel int
	Way     int
}

// String formats the id.
func (id ChipID) String() string { return fmt.Sprintf("ch%d/w%d", id.Channel, id.Way) }

// Fabric is the uniform transaction interface over an SSD interconnect.
// All completion callbacks fire as engine events after the full data path
// (flash array, channel, SoC) has been traversed.
type Fabric interface {
	// Name identifies the architecture for reports.
	Name() string
	// Grid returns the chip array.
	Grid() *Grid
	// Read performs a (multi-plane) page read from one chip and lands the
	// data in controller DRAM.
	Read(id ChipID, ppas []flash.PPA, done func())
	// Write programs (multi-plane) pages on one chip from DRAM.
	Write(id ChipID, ops []flash.ProgramOp, done func())
	// Erase erases one block per addressed plane on one chip.
	Erase(id ChipID, blocks []flash.PPA, done func())
	// Copy moves one valid page from src to dst for garbage collection.
	// The route is architecture-specific: through the controller and DRAM
	// on bus fabrics, directly flash-to-flash where the topology allows.
	Copy(src ChipID, from flash.PPA, dst ChipID, to flash.PPA, done func())
	// Lookahead returns the minimum non-zero latency on the fabric's
	// cross-group data path: the ECC pipeline in front of the SoC hop, a
	// control-plane message, or a mesh link traversal. The simulator
	// itself no longer reads it. It stays on the interface only because
	// the simbench tracing wrapper delegates to it, and that module is
	// changed only together with its benchmark.
	Lookahead() sim.Time
}

// Grid is the channel×way array of flash chips shared by every fabric.
type Grid struct {
	Channels int // rows
	Ways     int // columns
	chips    [][]*flash.Chip
}

// NewGrid builds channels×ways erased chips.
func NewGrid(eng *sim.Engine, channels, ways int, geo flash.Geometry, timing flash.Timing) *Grid {
	if channels <= 0 || ways <= 0 {
		panic(fmt.Sprintf("controller: invalid grid %dx%d", channels, ways))
	}
	g := &Grid{Channels: channels, Ways: ways, chips: make([][]*flash.Chip, channels)}
	for ch := 0; ch < channels; ch++ {
		g.chips[ch] = make([]*flash.Chip, ways)
		for w := 0; w < ways; w++ {
			g.chips[ch][w] = flash.NewChip(eng, fmt.Sprintf("ch%d/w%d", ch, w), geo, timing)
		}
	}
	return g
}

// Chip returns the chip at id.
func (g *Grid) Chip(id ChipID) *flash.Chip {
	if id.Channel < 0 || id.Channel >= g.Channels || id.Way < 0 || id.Way >= g.Ways {
		panic(fmt.Sprintf("controller: chip %v outside %dx%d grid", id, g.Channels, g.Ways))
	}
	return g.chips[id.Channel][id.Way]
}

// NumChips returns the total chip count.
func (g *Grid) NumChips() int { return g.Channels * g.Ways }

// ForEach visits every chip in row-major order.
func (g *Grid) ForEach(fn func(id ChipID, c *flash.Chip)) {
	for ch := 0; ch < g.Channels; ch++ {
		for w := 0; w < g.Ways; w++ {
			fn(ChipID{ch, w}, g.chips[ch][w])
		}
	}
}

// Soc models the shared controller-side resources every page crossing
// them must traverse: the system bus and DRAM, each a FIFO bandwidth
// resource, plus the on-chip control network the Omnibus control plane
// uses for request/grant messages between channel controllers.
type Soc struct {
	eng          *sim.Engine
	sysBus       *sim.Resource
	dram         *sim.Resource
	sysBusPsByte sim.Time
	dramPsByte   sim.Time
	ctrlMsgDelay sim.Time
}

// DefaultCtrlMsgLatency is the one-way latency of a control-plane message
// between two channel controllers over the SoC interconnect.
const DefaultCtrlMsgLatency = 100 * sim.Nanosecond

// NewSoc builds the SoC resources with the given bandwidths in MB/s.
// Table II provisions system bus and DRAM at the total flash bus
// bandwidth (8 GB/s for the 8×1 GB/s baseline).
func NewSoc(eng *sim.Engine, sysBusMBps, dramMBps int) *Soc {
	if sysBusMBps <= 0 || dramMBps <= 0 {
		panic("controller: non-positive SoC bandwidth")
	}
	return &Soc{
		eng:          eng,
		sysBus:       sim.NewResource(eng, "sysbus"),
		dram:         sim.NewResource(eng, "dram"),
		sysBusPsByte: sim.Time(1_000_000 / sysBusMBps), // ps per byte at MB/s == bytes/us
		dramPsByte:   sim.Time(1_000_000 / dramMBps),
		ctrlMsgDelay: DefaultCtrlMsgLatency,
	}
}

// Transfer moves n bytes across the system bus and into/out of DRAM as a
// two-stage pipeline, then runs done.
func (s *Soc) Transfer(n int, done func()) {
	if n < 0 {
		panic("controller: negative SoC transfer")
	}
	s.sysBus.UseLabeled("xfer", sim.Time(n)*s.sysBusPsByte, func() {
		s.dram.UseLabeled("xfer", sim.Time(n)*s.dramPsByte, done)
	})
}

// SetObserver attaches a hold/queue observer to the system bus and DRAM
// resources (the tracing hook); nil detaches.
func (s *Soc) SetObserver(o sim.ResourceObserver) {
	s.sysBus.SetObserver(o)
	s.dram.SetObserver(o)
}

// AddObserver attaches an additional observer to the system bus and DRAM
// resources (the invariant-checking hook), alongside any tracing observer.
func (s *Soc) AddObserver(o sim.ResourceObserver) {
	s.sysBus.AddObserver(o)
	s.dram.AddObserver(o)
}

// Idle reports whether both SoC resources are idle with empty queues — a
// drained-device invariant.
func (s *Soc) Idle() bool {
	return !s.sysBus.Busy() && s.sysBus.QueueLen() == 0 &&
		!s.dram.Busy() && s.dram.QueueLen() == 0
}

// CtrlMsg delivers a control-plane message between two channel
// controllers after the SoC interconnect latency.
func (s *Soc) CtrlMsg(fn func()) { s.eng.Schedule(s.ctrlMsgDelay, fn) }

// CtrlMsgLatency returns the current control-plane message latency.
// The Omnibus fabric folds it into its Lookahead bound.
func (s *Soc) CtrlMsgLatency() sim.Time { return s.ctrlMsgDelay }

// SetCtrlMsgLatency overrides the control-plane message latency, for the
// control-plane sensitivity ablation.
func (s *Soc) SetCtrlMsgLatency(d sim.Time) {
	if d < 0 {
		panic("controller: negative control message latency")
	}
	s.ctrlMsgDelay = d
}

// SysBusBusy returns cumulative system-bus occupancy, for reports.
func (s *Soc) SysBusBusy() sim.Time { return s.sysBus.TotalBusy() }

// DramBusy returns cumulative DRAM occupancy.
func (s *Soc) DramBusy() sim.Time { return s.dram.TotalBusy() }

// totalBytes sums the page sizes of a multi-plane op set.
func totalBytes(pageSize, pages int) int { return pageSize * pages }
