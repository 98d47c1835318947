package controller

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/flash"
	"repro/internal/sim"
)

// EccLatency is the controller-side ECC pipeline latency added to every
// page that crosses a flash channel controller (LDPC decode/encode).
const EccLatency = 500 * sim.Nanosecond

// OnDieEccLatency is the weaker on-die error detection used for direct
// flash-to-flash movement in pnSSD (the hybrid-ECC scheme of the paper's
// discussion section).
const OnDieEccLatency = 100 * sim.Nanosecond

// BusFabric is the classic one-bus-per-channel fabric. With a dedicated
// 8-bit interface it is the baseline SSD; with a packetized 16-bit
// interface it is pSSD (Fig 9(a)). Chips on one channel share that
// channel for every command and every byte of payload, and all traffic —
// host I/O and GC alike — funnels through the channel controller.
type BusFabric struct {
	eng      *sim.Engine
	name     string
	grid     *Grid
	soc      *Soc
	pageSize int
	chans    []*bus.Channel
	iface    []bus.Iface

	ops sim.FreeList[busOp]
}

// NewBusFabric builds a bus fabric with one channel per grid row.
// packetized selects the pSSD interface; widthBits and rateMTps describe
// each channel (8/1000 for baseSSD, 16/1000 for pSSD per Table II).
func NewBusFabric(eng *sim.Engine, name string, grid *Grid, soc *Soc, pageSize, widthBits, rateMTps int, packetized bool) *BusFabric {
	f := &BusFabric{
		eng:      eng,
		name:     name,
		grid:     grid,
		soc:      soc,
		pageSize: pageSize,
		chans:    make([]*bus.Channel, grid.Channels),
		iface:    make([]bus.Iface, grid.Channels),
	}
	f.ops = sim.NewFreeList(recordPoolCap, f.newOp)
	for ch := 0; ch < grid.Channels; ch++ {
		f.chans[ch] = bus.NewChannel(eng, fmt.Sprintf("%s/h%d", name, ch), widthBits, rateMTps)
		if packetized {
			f.iface[ch] = bus.NewPacketized(f.chans[ch])
		} else {
			if widthBits != 8 {
				panic("controller: dedicated interface is 8 bits wide")
			}
			f.iface[ch] = bus.NewDedicated(rateMTps)
		}
	}
	return f
}

// Name implements Fabric.
func (f *BusFabric) Name() string { return f.name }

// Grid implements Fabric.
func (f *BusFabric) Grid() *Grid { return f.grid }

// Lookahead implements Fabric. The bus fabrics' only non-zero latency
// between a channel group and the SoC is the ECC pipeline (reads pay it
// on the return path, writes before dispatch), so it is EccLatency.
func (f *BusFabric) Lookahead() sim.Time { return EccLatency }

// Channel returns the h-channel for a grid row, for instrumentation.
func (f *BusFabric) Channel(ch int) *bus.Channel { return f.chans[ch] }

// busOp is one BusFabric transaction in flight: its chip, channel and
// payload, and its stages as method values bound once when the record is
// built, so a transaction schedules no closures. A page copy runs its
// read half and then its write half in the same record. The record goes
// back to the fabric's free list before done can run.
type busOp struct {
	f      *BusFabric
	ch     *bus.Channel
	ifc    bus.Iface
	chip   *flash.Chip
	n      int
	addrs  []flash.PPA
	writes []flash.ProgramOp
	done   func()

	// A copy's destination chip and page. The source page is addrs[0];
	// the token its read leaves in the page register becomes writes[0].
	copying bool
	dst     ChipID
	to      flash.PPA

	readCmdFn, readDoneFn, readXferFn, readEccFn func()
	writeSocFn, writeEccFn, writeXferFn          func()
	copyWriteFn, eraseCmdFn                      func()
}

func (f *BusFabric) newOp() *busOp {
	r := &busOp{f: f}
	r.readCmdFn = r.readCmd
	r.readDoneFn = r.readDone
	r.readXferFn = r.readXfer
	r.readEccFn = r.readEcc
	r.writeSocFn = r.writeSoc
	r.writeEccFn = r.writeEcc
	r.writeXferFn = r.writeXfer
	r.copyWriteFn = r.copyWrite
	r.eraseCmdFn = r.eraseCmd
	return r
}

// op takes a record for a transaction on chip id.
func (f *BusFabric) op(id ChipID, n int, done func()) *busOp {
	r := f.ops.Get()
	r.on(id)
	r.n, r.done, r.copying = n, done, false
	return r
}

// on points the record at chip id and its channel.
func (r *busOp) on(id ChipID) {
	r.ch, r.ifc, r.chip = r.f.chans[id.Channel], r.f.iface[id.Channel], r.f.grid.Chip(id)
}

// recycle returns the record to the free list and hands back its done.
func (r *busOp) recycle() func() {
	done := r.done
	r.done = nil
	r.f.ops.Put(r)
	return done
}

// Read implements Fabric: command on the channel, tR in the array, page
// readout on the channel, ECC, then the SoC hop into DRAM.
func (f *BusFabric) Read(id ChipID, ppas []flash.PPA, done func()) {
	r := f.op(id, totalBytes(f.pageSize, len(ppas)), done)
	r.addrs = append(r.addrs[:0], ppas...)
	r.ch.UseOp("read-cmd", r.ifc.ReadCmd(), r.readCmdFn)
}

func (r *busOp) readCmd() { r.chip.Read(r.addrs, r.readDoneFn) }

func (r *busOp) readDone() {
	label := "read-xfer"
	if r.copying {
		label = "gc-read-xfer"
		r.writes = append(r.writes[:0], flash.ProgramOp{Addr: r.to, Token: r.chip.PageRegister(r.addrs[0].Plane)})
	}
	r.ch.UseOp(label, r.ifc.ReadXfer(r.n), r.readXferFn)
}

func (r *busOp) readXfer() { r.f.eng.Schedule(EccLatency, r.readEccFn) }

func (r *busOp) readEcc() {
	if r.copying {
		r.f.soc.Transfer(r.n, r.copyWriteFn)
		return
	}
	soc, n := r.f.soc, r.n
	soc.Transfer(n, r.recycle())
}

// Write implements Fabric: the SoC hop out of DRAM, command+payload on the
// channel, then tPROG in the array.
func (f *BusFabric) Write(id ChipID, ops []flash.ProgramOp, done func()) {
	r := f.op(id, totalBytes(f.pageSize, len(ops)), done)
	r.writes = append(r.writes[:0], ops...)
	f.soc.Transfer(r.n, r.writeSocFn)
}

func (r *busOp) writeSoc() { r.f.eng.Schedule(EccLatency, r.writeEccFn) }

func (r *busOp) writeEcc() {
	r.ch.UseOp("program-xfer", r.ifc.ProgramXfer(r.n), r.writeXferFn)
}

func (r *busOp) writeXfer() {
	r.chip.Program(r.writes, r.done)
	r.recycle()
}

// Erase implements Fabric.
func (f *BusFabric) Erase(id ChipID, blocks []flash.PPA, done func()) {
	r := f.op(id, 0, done)
	r.addrs = append(r.addrs[:0], blocks...)
	r.ch.UseOp("erase-cmd", r.ifc.EraseCmd(), r.eraseCmdFn)
}

func (r *busOp) eraseCmd() {
	r.chip.Erase(r.addrs, r.done)
	r.recycle()
}

// Copy implements Fabric: bus fabrics have no flash-to-flash connectivity,
// so a GC page copy reads the page back through the source channel into
// DRAM and writes it out through the destination channel (Fig 10(a)) —
// occupying both channels, the controllers' ECC, and the SoC twice.
func (f *BusFabric) Copy(src ChipID, from flash.PPA, dst ChipID, to flash.PPA, done func()) {
	r := f.op(src, f.pageSize, done)
	r.copying, r.dst, r.to = true, dst, to
	r.addrs = append(r.addrs[:0], from)
	r.ch.UseOp("gc-read-cmd", r.ifc.ReadCmd(), r.readCmdFn)
}

// copyWrite starts the write half of a copy once the page is in DRAM:
// the same path as Write, from the destination's SoC hop on.
func (r *busOp) copyWrite() {
	r.on(r.dst)
	r.f.soc.Transfer(r.n, r.writeSocFn)
}
