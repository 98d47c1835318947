// Package bus models flash channel buses as shared FIFO media and provides
// the per-transaction occupancy timing for both the conventional
// dedicated-signal interface and the packetized pSSD interface.
//
// A Channel is the physical medium: width in bits, transfer rate in MT/s,
// one transaction at a time, FIFO arbitration (the paper keeps the
// controller-driven CE/R-B handshake instead of a distributed bus arbiter).
// An Iface converts logical transactions (read command, page readout,
// program, erase) into occupancy durations on a given channel.
package bus

import (
	"fmt"

	"repro/internal/onfi"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Channel is one bus: an h-channel, a v-channel, or a mesh link.
type Channel struct {
	name      string
	widthBits int
	rateMTps  int
	beat      sim.Time
	res       *sim.Resource
}

// NewChannel creates an idle channel of the given width and rate.
func NewChannel(eng *sim.Engine, name string, widthBits, rateMTps int) *Channel {
	if widthBits <= 0 || rateMTps <= 0 {
		panic(fmt.Sprintf("bus: invalid channel %s: width=%d rate=%d", name, widthBits, rateMTps))
	}
	return &Channel{
		name:      name,
		widthBits: widthBits,
		rateMTps:  rateMTps,
		beat:      sim.Time(1_000_000 / rateMTps),
		res:       sim.NewResource(eng, name),
	}
}

// Name returns the channel name.
func (c *Channel) Name() string { return c.name }

// WidthBits returns the channel width.
func (c *Channel) WidthBits() int { return c.widthBits }

// RateMTps returns the transfer rate in mega-transfers per second.
func (c *Channel) RateMTps() int { return c.rateMTps }

// BeatTime returns the duration of one transfer beat.
func (c *Channel) BeatTime() sim.Time { return c.beat }

// BandwidthMBps returns the raw channel bandwidth in MB/s.
func (c *Channel) BandwidthMBps() float64 {
	return float64(c.rateMTps) * float64(c.widthBits) / 8
}

// TimeForFlits returns the serialization time for n 8-bit flits; wide
// channels move several flits per beat, narrow channels take several beats
// per flit.
func (c *Channel) TimeForFlits(n int) sim.Time {
	if n < 0 {
		panic("bus: negative flit count")
	}
	bits := n * packet.FlitBits
	beats := (bits + c.widthBits - 1) / c.widthBits
	return sim.Time(beats) * c.beat
}

// TimeForBytes returns the serialization time for n raw payload bytes.
func (c *Channel) TimeForBytes(n int) sim.Time { return c.TimeForFlits(n) }

// Use occupies the channel for d, then runs done. Requests queue FIFO.
func (c *Channel) Use(d sim.Time, done func()) { c.res.Use(d, done) }

// UseOp is Use with an operation label ("read-xfer", "gc-copy", ...)
// naming the hold for trace observers. Labels must be constant strings.
func (c *Channel) UseOp(label string, d sim.Time, done func()) { c.res.UseLabeled(label, d, done) }

// Acquire and Release expose raw resource holds for multi-phase
// transactions that must keep the bus across phases.
func (c *Channel) Acquire(fn func()) { c.res.Acquire(fn) }

// AcquireOp is Acquire with an operation label for trace observers.
func (c *Channel) AcquireOp(label string, fn func()) { c.res.AcquireLabeled(label, fn) }

// TryAcquire acquires only if the channel is idle with no waiters.
func (c *Channel) TryAcquire(fn func()) bool { return c.res.TryAcquire(fn) }

// Release frees the channel.
func (c *Channel) Release() { c.res.Release() }

// Busy reports whether the channel is currently held.
func (c *Channel) Busy() bool { return c.res.Busy() }

// QueueLen returns the number of queued waiters.
func (c *Channel) QueueLen() int { return c.res.QueueLen() }

// Load returns queue length plus current occupancy — the greedy adaptive
// routing metric used by pnSSD controllers to pick between h and v paths.
func (c *Channel) Load() int {
	n := c.res.QueueLen()
	if c.res.Busy() {
		n++
	}
	return n
}

// AddObserver attaches a hold/queue observer to the underlying resource,
// alongside any already installed.
func (c *Channel) AddObserver(o sim.ResourceObserver) { c.res.AddObserver(o) }

// TotalBusy returns cumulative occupancy.
func (c *Channel) TotalBusy() sim.Time { return c.res.TotalBusy() }

// Utilization returns lifetime utilization.
func (c *Channel) Utilization() float64 { return c.res.Utilization() }

// Iface converts logical flash transactions into channel occupancy times.
// Implementations must be pure: occupancy depends only on the transaction,
// so controllers can plan transfers before acquiring the bus.
type Iface interface {
	// Name identifies the interface style for reports.
	Name() string
	// ReadCmd is the occupancy to issue a page-read command+address.
	ReadCmd() sim.Time
	// ReadXfer is the occupancy to stream a page of n bytes from the chip
	// to the controller, including any transfer command that initiates it.
	ReadXfer(n int) sim.Time
	// ProgramXfer is the occupancy to issue a program command and stream
	// n payload bytes to the chip.
	ProgramXfer(n int) sim.Time
	// EraseCmd is the occupancy to issue a block erase.
	EraseCmd() sim.Time
}

// Dedicated is the conventional ONFi signal-based interface: control pins
// sequence the transaction and only the 8 DQ pins move payload.
type Dedicated struct {
	timing onfi.Timing
}

// NewDedicated builds the conventional interface for a channel rate. The
// conventional interface is always 8 bits wide; pass the channel's rate.
func NewDedicated(rateMTps int) Dedicated {
	return Dedicated{timing: onfi.NewTiming(rateMTps)}
}

// Name implements Iface.
func (Dedicated) Name() string { return "dedicated" }

// ReadCmd implements Iface.
func (d Dedicated) ReadCmd() sim.Time { return d.timing.ReadCmdTime() }

// ReadXfer implements Iface: RE-clocked readout of n bytes.
func (d Dedicated) ReadXfer(n int) sim.Time {
	return d.timing.Handshake + d.timing.DataTime(n)
}

// ProgramXfer implements Iface: command+address cycles then the payload.
func (d Dedicated) ProgramXfer(n int) sim.Time {
	return d.timing.ProgramCmdTime() + d.timing.DataTime(n)
}

// EraseCmd implements Iface.
func (d Dedicated) EraseCmd() sim.Time { return d.timing.EraseCmdTime() }

// Packetized is the pSSD interface: everything is flits on the full channel
// width; only CE and R/B survive as sideband handshake.
type Packetized struct {
	ch        *Channel
	handshake sim.Time
}

// NewPacketized builds the packetized interface bound to a channel (the
// flit serialization time depends on the channel width).
func NewPacketized(ch *Channel) Packetized {
	return Packetized{ch: ch, handshake: onfi.DefaultHandshake}
}

// Name implements Iface.
func (Packetized) Name() string { return "packetized" }

// ReadCmd implements Iface: CE handshake plus one control packet.
func (p Packetized) ReadCmd() sim.Time {
	return p.handshake + p.ch.TimeForFlits(packet.ControlFlitsFor())
}

// ReadXfer implements Iface: a "read data transfer" control packet followed
// by the data packet streaming back.
func (p Packetized) ReadXfer(n int) sim.Time {
	return p.handshake +
		p.ch.TimeForFlits(packet.ControlFlitsFor()) +
		p.ch.TimeForFlits(packet.DataFlitsFor(n))
}

// ProgramXfer implements Iface: control packet then the payload data packet.
func (p Packetized) ProgramXfer(n int) sim.Time {
	return p.handshake +
		p.ch.TimeForFlits(packet.ControlFlitsFor()) +
		p.ch.TimeForFlits(packet.DataFlitsFor(n))
}

// EraseCmd implements Iface: a single control packet (erase carries only a
// row address, 6 flits).
func (p Packetized) EraseCmd() sim.Time {
	erase := packet.EraseControl(packet.Address{})
	return p.handshake + p.ch.TimeForFlits(erase.Flits())
}

// VXfer returns the occupancy of a direct flash-to-flash page movement on a
// v-channel: a transfer-out control packet, a transfer-in control packet,
// and the payload data packet moving once (source register to destination
// V-page register).
func (p Packetized) VXfer(n int) sim.Time {
	return p.handshake +
		2*p.ch.TimeForFlits(packet.ControlFlitsFor()) +
		p.ch.TimeForFlits(packet.DataFlitsFor(n))
}

// MeanWait returns the average queueing delay transactions experienced
// before being granted this channel — the congestion signal behind the
// per-architecture contention analyses.
func (c *Channel) MeanWait() sim.Time { return c.res.MeanWait() }

// MaxWait returns the worst queueing delay seen on this channel.
func (c *Channel) MaxWait() sim.Time { return c.res.MaxWait() }
