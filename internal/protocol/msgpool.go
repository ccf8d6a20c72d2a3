package protocol

// The message pool. A coherence miss is a short chain of messages — a
// request, then a forward or invalidations, then a reply and
// acknowledgments — and each stage consumes the one before it, so the
// machine keeps one free list of *Msg that both engines draw from and
// return to. The ownership rule:
//
//   - A message has one owner at a time: the packet carrying it, the
//     operand of a NIC or kernel callback, or an engine queue.
//   - Its last owner either rewrites it in place as the chain's next
//     message (Become) or frees it (FreeMsg).
//   - A message on a path with no free point (a fault-dropped request or
//     reply, a backoff closure) is left to the collector.
//
// Under the race build tag FreeMsg poisons the message instead of reusing
// it, so any read through a stale pointer sees freedMsg and the race-enabled
// test suite checks the rule on every run.

// freedMsg is the MsgType of a poisoned (freed) message in race builds.
const freedMsg MsgType = 0xff

// NewMsg returns a message holding v, reusing a freed one when the free
// list has one.
func (m *Machine) NewMsg(v Msg) *Msg {
	var msg *Msg
	if n := len(m.msgFree); n > 0 {
		msg = m.msgFree[n-1]
		m.msgFree = m.msgFree[:n-1]
	} else {
		msg = new(Msg)
		m.msgsMade++
	}
	*msg = v
	return msg
}

// FreeMsg returns msg to the free list. The caller must be its last owner:
// nothing may read or write msg afterwards.
func (m *Machine) FreeMsg(msg *Msg) {
	if poisonFreed {
		if msg.Type == freedMsg {
			panic("protocol: message freed twice")
		}
		*msg = Msg{Type: freedMsg, Addr: ^uint64(0), Requester: -1}
		return
	}
	m.msgFree = append(m.msgFree, msg)
}

// CloneMsg is the payload copy hook engines hand the network layer
// (network.Config.Clone) for hardware-multicast forks: each fork gets its
// own pooled *Msg, so per-copy rewrites at the receivers cannot alias
// across branches. Non-Msg payloads pass through shared, which is what
// test harness payloads want.
func (m *Machine) CloneMsg(payload any) any {
	if msg, ok := payload.(*Msg); ok {
		return m.NewMsg(*msg)
	}
	return payload
}

// MsgPool reports the free list's length and how many messages the machine
// has allocated in all, for tests of the ownership rule.
func (m *Machine) MsgPool() (free, made int) { return len(m.msgFree), m.msgsMade }

// mustBeLive panics, in race builds, when msg has been freed.
func mustBeLive(msg *Msg) {
	if poisonFreed && msg.Type == freedMsg {
		panic("protocol: use of a freed message")
	}
}
