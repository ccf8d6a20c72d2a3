package serve

import (
	"innetcc/internal/exec"
)

// Event is one entry of a job's progress stream (GET /v1/jobs/{id}/events,
// server-sent events). State transitions carry the full record; progress
// ticks carry the runner's Progress observation. ID is the job-local event
// sequence number (1-based, monotonic): SSE clients echo the last ID they
// saw in the Last-Event-ID header on reconnect and the server replays what
// they missed from its retained ring.
type Event struct {
	ID       int64          `json:"id,omitempty"`
	Type     string         `json:"type"` // "state" | "progress"
	Record   *JobRecord     `json:"record,omitempty"`
	Progress *exec.Progress `json:"progress,omitempty"`
}

// maxEventHistory bounds the per-job retained event ring Last-Event-ID
// reconnects replay from. A reconnect that fell further behind than the
// ring (or predates it) gets a synthetic state event with the current
// record instead — progress ticks are telemetry, but the current state
// subsumes everything a stream exists to deliver, including the terminal
// transition.
const maxEventHistory = 256

// SubscribeAfter attaches a progress listener to the job. Events with IDs
// greater than after are replayed from the retained ring before live
// delivery begins, so a dropped stream resumes where it left off. after < 0
// requests a fresh subscription, which first delivers a synthetic state
// event with the current record; an after older than the ring's tail falls
// back to the same synthetic snapshot, so a lagging client always converges
// on the current record. The channel is closed when the job reaches a
// terminal state (the closing state event is delivered first). The
// unsubscribe function is idempotent and safe after close.
func (s *Server) SubscribeAfter(id string, after int64) (<-chan Event, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js := s.jobs[id]
	if js == nil {
		return nil, nil, ErrUnknownJob
	}
	replay := js.replayLocked(after)
	// Buffered so a stalled consumer drops events instead of blocking the
	// simulation worker; 64 comfortably covers state transitions plus a
	// burst of progress ticks, and the replay backlog rides on top.
	ch := make(chan Event, len(replay)+64)
	for _, ev := range replay {
		ch <- ev
	}
	if js.rec.Terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	js.subs = append(js.subs, ch)
	unsub := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, c := range js.subs {
			if c == ch {
				js.subs = append(js.subs[:i], js.subs[i+1:]...)
				close(ch)
				return
			}
		}
	}
	return ch, unsub, nil
}

// replayLocked computes the catch-up backlog for a subscriber that last saw
// event ID after. Callers hold s.mu.
func (js *jobState) replayLocked(after int64) []Event {
	if after >= js.lastEv {
		// Fully caught up (or claiming to be from the future): nothing to
		// replay; a fresh terminal job still needs its closing event, which
		// the synthetic snapshot below covers only when after < lastEv.
		if after > js.lastEv {
			after = -1 // bogus ID from another job's stream: resync
		} else {
			return nil
		}
	}
	if after >= 0 && len(js.hist) > 0 && js.hist[0].ID <= after+1 {
		// The ring still holds everything after the cursor: exact replay.
		out := make([]Event, 0, len(js.hist))
		for _, ev := range js.hist {
			if ev.ID > after {
				out = append(out, ev)
			}
		}
		return out
	}
	// Fresh subscription, or the cursor fell off the ring: one synthetic
	// state event carrying the current record (stamped with the latest ID
	// so a further reconnect resumes exactly).
	return []Event{{ID: js.lastEv, Type: "state", Record: recPtr(js.rec)}}
}

// publishLocked assigns the event its job-local sequence ID, retains it in
// the replay ring and fans it out to the job's subscribers. Callers hold
// s.mu. Slow subscribers lose events (non-blocking send): progress is a
// telemetry stream, not a transactional log. The exception is a terminal
// state event — SubscribeAfter promises it precedes the channel close — so a
// full buffer has its oldest queued telemetry evicted to make room.
// Eviction is safe: senders serialize on s.mu, so after freeing a slot
// the send cannot find the buffer full again.
func (s *Server) publishLocked(js *jobState, ev Event) {
	js.lastEv++
	ev.ID = js.lastEv
	js.hist = append(js.hist, ev)
	if len(js.hist) > maxEventHistory {
		js.hist = js.hist[len(js.hist)-maxEventHistory:]
	}
	terminal := ev.Type == "state" && ev.Record != nil && ev.Record.Terminal()
	for _, ch := range js.subs {
		select {
		case ch <- ev:
		default:
			if terminal {
				select {
				case <-ch:
				default:
				}
				select {
				case ch <- ev:
				default:
				}
			}
		}
	}
}

// closeSubsLocked ends every subscriber stream. Callers hold s.mu.
func (s *Server) closeSubsLocked(js *jobState) {
	for _, ch := range js.subs {
		close(ch)
	}
	js.subs = nil
}
