// Package chat is the stand-in for the VolanoMark experiment mentioned at
// the end of Section 7.2: a chat server whose rooms are protected by
// per-room monitors, run with TLE emitted-and-enabled, emitted-but-disabled
// (measuring the code-bloat cost), and not emitted at all. It is the "real
// application" counterpart to the microbenchmarks: critical sections of
// mixed size and contention, some of which profit from elision and some of
// which do not.
package chat

import (
	"rocktm/internal/core"
	"rocktm/internal/jvm"
	"rocktm/internal/sim"
)

const ringSize = 64 // messages retained per room (power of two)

var (
	pcPostWrap = core.PC("chat.post.wrap")
	pcReadSkip = core.PC("chat.read.skip")
)

// Room is one chat room: a monitor, a member count, and a ring of recent
// messages.
type Room struct {
	mon     *jvm.Monitor
	head    sim.Addr // message sequence number
	members sim.Addr
	ring    sim.Addr // ringSize message words
}

// Server is the chat server.
type Server struct {
	vm    *jvm.JVM
	rooms []*Room
}

// NewServer builds a server with the given number of rooms.
func NewServer(m *sim.Machine, vm *jvm.JVM, rooms int) *Server {
	srv := &Server{vm: vm}
	for i := 0; i < rooms; i++ {
		srv.rooms = append(srv.rooms, &Room{
			mon:     vm.NewMonitor(m),
			head:    m.Mem().AllocLines(sim.WordsPerLine),
			members: m.Mem().AllocLines(sim.WordsPerLine),
			ring:    m.Mem().AllocLines(ringSize),
		})
	}
	return srv
}

// Join adds a member to room i.
func (srv *Server) Join(s *sim.Strand, i int) {
	r := srv.rooms[i]
	srv.vm.Synchronized(s, r.mon, func(c core.Ctx) {
		c.Store(r.members, c.Load(r.members)+1)
	})
}

// Leave removes a member from room i.
func (srv *Server) Leave(s *sim.Strand, i int) {
	r := srv.rooms[i]
	srv.vm.Synchronized(s, r.mon, func(c core.Ctx) {
		m := c.Load(r.members)
		if m > 0 {
			c.Store(r.members, m-1)
		}
	})
}

// Post appends a message to room i and returns its sequence number.
func (srv *Server) Post(s *sim.Strand, i int, msg sim.Word) sim.Word {
	r := srv.rooms[i]
	var seq sim.Word
	srv.vm.Synchronized(s, r.mon, func(c core.Ctx) {
		seq = c.Load(r.head)
		slot := seq & (ringSize - 1)
		c.Branch(pcPostWrap, slot == 0, false)
		c.Store(r.ring+sim.Addr(slot), msg)
		c.Store(r.head, seq+1)
	})
	return seq
}

// ReadRecent sums the most recent n messages of room i (the fan-out a chat
// server does per connection), returning the checksum.
func (srv *Server) ReadRecent(s *sim.Strand, i, n int) sim.Word {
	r := srv.rooms[i]
	var sum sim.Word
	srv.vm.Synchronized(s, r.mon, func(c core.Ctx) {
		sum = 0
		head := c.Load(r.head)
		for k := 0; k < n; k++ {
			if sim.Word(k) >= head {
				c.Branch(pcReadSkip, true, true)
				break
			}
			slot := (head - 1 - sim.Word(k)) & (ringSize - 1)
			sum += c.Load(r.ring + sim.Addr(slot))
		}
	})
	return sum
}

// MessageCount returns room i's total posted messages (validation).
func (srv *Server) MessageCount(mem *sim.Memory, i int) sim.Word {
	return mem.Peek(srv.rooms[i].head)
}
