// Package fault is the deterministic fault-injection and recovery
// subsystem: it decides, as a pure function of a seed, where and when the
// network loses, corrupts or stalls packets, and it defines the typed
// errors the rest of the stack uses to report recovery failures loudly.
//
// A Spec is the human-written description of a fault campaign (rates,
// window, scope, recovery knobs), parsed from the compact key=value form
// the CLI's -faults flag takes. Spec.Plan binds a spec to a seed,
// producing a Plan whose per-(cycle, router, port) decisions are stateless
// hash lookups: two runs with the same plan see the identical fault
// schedule regardless of worker parallelism, wall-clock order or how often
// a site is queried, and a plan occupies no memory beyond its seed. Seeds
// are expected to come from the experiment layer's splitmix64 derivation
// chain, so fault schedules inherit the repository-wide byte-identical
// reproducibility guarantee.
//
// The package deliberately knows nothing about routers, packets or
// protocol messages — it answers "does site X fail at cycle T" and names
// failure outcomes. The network layer consults the plan at its link-grant
// and pipeline-exit points; the protocol layer implements the recovery
// (timeout, bounded retry with exponential backoff, hang watchdog) and
// wraps unrecoverable outcomes in this package's error types.
package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// ppmScale is the rate denominator: rates are parts-per-million, so a rate
// of 1_000_000 fires at every opportunity.
const ppmScale = 1_000_000

// Scope selects which packets injected drops and corruptions may hit. A
// corrupted packet is discarded by the next router's checksum, so the two
// lose a packet alike and share one scope.
type Scope uint8

const (
	// ScopeRetryable drops or corrupts only packets the protocol can
	// reissue from scratch (coherence requests). Runs under this scope
	// must complete coherently as long as the retry budget holds.
	ScopeRetryable Scope = iota
	// ScopeAll drops or corrupts any packet on an inter-router link,
	// including replies, invalidations and teardowns the protocol cannot
	// replay. Chaos runs under this scope are expected to wedge; the
	// watchdog turns the wedge into a typed, reproducible failure.
	ScopeAll
)

func (s Scope) String() string {
	if s == ScopeAll {
		return "all"
	}
	return "req"
}

// Spec describes one fault campaign plus the recovery configuration that
// accompanies it. The zero value injects nothing; DefaultSpec fills in the
// recovery defaults ParseSpec starts from.
type Spec struct {
	// DropPPM, CorruptPPM and StallPPM are per-opportunity fault rates in
	// parts per million. Drops remove a packet at an inter-router link
	// grant; corruptions flip the packet's integrity word on a link so
	// the next router's checksum verification discards it; stalls freeze
	// an output link for whole windows of StallLen cycles.
	DropPPM    uint32
	CorruptPPM uint32
	StallPPM   uint32

	// StallLen is the stall window length in cycles: stall sampling is
	// per window, so a sampled window freezes its link for StallLen
	// consecutive cycles.
	StallLen int64

	// Start and End bound the injection window in cycles; End == 0 leaves
	// it open-ended. Faults fire only at cycles in [Start, End).
	Start, End int64

	// Scope selects which packets drops and corruptions may hit (see
	// Scope).
	Scope Scope

	// Timeout is the protocol-level per-request reply timeout in cycles;
	// 0 disables timeout/retry recovery entirely. Budget bounds reissues
	// per access (exceeding it fails the run with RetryExhaustedError)
	// and Backoff is the base reissue delay, doubled every attempt.
	Timeout int64
	Budget  int
	Backoff int64

	// Probe is the runtime coherence-invariant probe interval in cycles
	// (0 disables probing).
	Probe int64

	// LinkTargeted restricts injection to the one directed inter-router
	// link (LinkRouter, LinkPort), spec key "link=router:port"
	// ("link=*", the default, targets every link). The namespace is the
	// active topology's: port p on router r is exactly the Link{From: r,
	// Port: p} entry that Topology.Links enumerates, so a torus
	// wraparound link or a ring port is as targetable as a mesh edge.
	// The zero value (untargeted) leaves every link eligible.
	LinkTargeted         bool
	LinkRouter, LinkPort int
}

// DefaultSpec returns the spec ParseSpec starts from: no injection, and
// recovery defaults sized so a retried request comfortably outlives the
// worst-case tree walk (timeout 25000 cycles, 3 reissues, base backoff 64).
func DefaultSpec() Spec {
	return Spec{StallLen: 8, Timeout: 25_000, Budget: 3, Backoff: 64}
}

// Injecting reports whether the spec schedules any faults at all.
func (s Spec) Injecting() bool {
	return s.DropPPM != 0 || s.CorruptPPM != 0 || s.StallPPM != 0
}

// String renders the spec in the canonical full form ParseSpec accepts.
// Every field is emitted in a fixed order, so ParseSpec(s.String()) == s
// for any valid spec (the fuzz target holds this as an invariant).
func (s Spec) String() string {
	link := "*"
	if s.LinkTargeted {
		link = fmt.Sprintf("%d:%d", s.LinkRouter, s.LinkPort)
	}
	return fmt.Sprintf("drop=%d,corrupt=%d,stall=%d,stalllen=%d,window=%d:%d,scope=%s,link=%s,timeout=%d,retries=%d,backoff=%d,probe=%d",
		s.DropPPM, s.CorruptPPM, s.StallPPM, s.StallLen, s.Start, s.End, s.Scope, link, s.Timeout, s.Budget, s.Backoff, s.Probe)
}

// Validate reports spec field combinations no run can honor.
func (s Spec) Validate() error {
	switch {
	case s.DropPPM > ppmScale || s.CorruptPPM > ppmScale || s.StallPPM > ppmScale:
		return fmt.Errorf("fault: rates are parts per million, max %d (got drop=%d corrupt=%d stall=%d)",
			ppmScale, s.DropPPM, s.CorruptPPM, s.StallPPM)
	case s.StallLen < 1:
		return fmt.Errorf("fault: stalllen %d < 1", s.StallLen)
	case s.Start < 0 || s.End < 0:
		return fmt.Errorf("fault: negative window [%d,%d)", s.Start, s.End)
	case s.End != 0 && s.End <= s.Start:
		return fmt.Errorf("fault: empty window [%d,%d)", s.Start, s.End)
	case s.Scope > ScopeAll:
		return fmt.Errorf("fault: unknown scope %d", s.Scope)
	case s.Timeout < 0 || s.Budget < 0 || s.Backoff < 0 || s.Probe < 0:
		return fmt.Errorf("fault: negative recovery knob (timeout=%d retries=%d backoff=%d probe=%d)",
			s.Timeout, s.Budget, s.Backoff, s.Probe)
	case s.LinkTargeted && (s.LinkRouter < 0 || s.LinkPort < 0):
		return fmt.Errorf("fault: bad link target %d:%d", s.LinkRouter, s.LinkPort)
	case !s.LinkTargeted && (s.LinkRouter != 0 || s.LinkPort != 0):
		return fmt.Errorf("fault: link coordinates set without a target (use LinkTargeted)")
	}
	return nil
}

// ParseSpec parses the compact key=value,... fault spec the CLI takes,
// e.g. "drop=500,retries=5" or "stall=1000000,scope=all,timeout=0".
// Unset keys keep their DefaultSpec values; an empty string is the default
// spec (recovery armed, nothing injected). Keys:
//
//	drop, corrupt, stall   fault rates in parts per million (0..1000000)
//	stalllen               stall window length in cycles (default 8)
//	window                 injection window "start:end" (end empty or 0 = open)
//	scope                  "req" (retryable requests only, default) or "all"
//	link                   target one directed link "router:port" ("*" = all,
//	                       default); ports follow the active topology's
//	                       namespace (see network.Topology.Links)
//	timeout                per-request reply timeout in cycles (0 = no retry)
//	retries                retry budget per access (default 3)
//	backoff                base reissue backoff in cycles (default 64)
//	probe                  invariant probe interval in cycles (0 = off)
func ParseSpec(text string) (Spec, error) {
	s := DefaultSpec()
	if strings.TrimSpace(text) == "" {
		return s, nil
	}
	for _, field := range strings.Split(text, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("fault: %q is not key=value", field)
		}
		var err error
		switch key {
		case "drop":
			s.DropPPM, err = parsePPM(val)
		case "corrupt":
			s.CorruptPPM, err = parsePPM(val)
		case "stall":
			s.StallPPM, err = parsePPM(val)
		case "stalllen":
			s.StallLen, err = parseInt(val)
		case "window":
			err = parseWindow(val, &s.Start, &s.End)
		case "scope":
			switch val {
			case "req":
				s.Scope = ScopeRetryable
			case "all":
				s.Scope = ScopeAll
			default:
				err = fmt.Errorf("want req or all, got %q", val)
			}
		case "link":
			if val == "*" {
				s.LinkTargeted, s.LinkRouter, s.LinkPort = false, 0, 0
				break
			}
			r, p, ok := strings.Cut(val, ":")
			var ri, pi int64
			var err2 error
			if ok {
				ri, err = parseInt(r)
				pi, err2 = parseInt(p)
			}
			if !ok || err != nil || err2 != nil {
				err = fmt.Errorf("want router:port or *, got %q", val)
				break
			}
			s.LinkTargeted, s.LinkRouter, s.LinkPort = true, int(ri), int(pi)
		case "timeout":
			s.Timeout, err = parseInt(val)
		case "retries":
			var n int64
			n, err = parseInt(val)
			s.Budget = int(n)
		case "backoff":
			s.Backoff, err = parseInt(val)
		case "probe":
			s.Probe, err = parseInt(val)
		default:
			return Spec{}, fmt.Errorf("fault: unknown key %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("fault: bad %s: %v", key, err)
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

func parsePPM(val string) (uint32, error) {
	n, err := strconv.ParseUint(val, 10, 32)
	if err != nil {
		return 0, err
	}
	if n > ppmScale {
		return 0, fmt.Errorf("rate %d exceeds %d ppm", n, ppmScale)
	}
	return uint32(n), nil
}

func parseInt(val string) (int64, error) {
	return strconv.ParseInt(val, 10, 64)
}

func parseWindow(val string, start, end *int64) error {
	lo, hi, ok := strings.Cut(val, ":")
	if !ok {
		return fmt.Errorf("want start:end, got %q", val)
	}
	var err error
	if *start, err = parseInt(lo); err != nil {
		return err
	}
	if hi == "" {
		*end = 0
		return nil
	}
	*end, err = parseInt(hi)
	return err
}

// Plan binds a Spec to a seed: a complete, self-contained fault schedule.
// Every query is a pure hash of (seed, site, cycle) — a plan never
// pre-generates or remembers anything, so schedules over billions of
// cycles cost nothing and identical plans always agree.
type Plan struct {
	Spec Spec
	Seed uint64
}

// Plan binds the spec to a seed.
func (s Spec) Plan(seed uint64) Plan { return Plan{Spec: s, Seed: seed} }

// Domain separators for the three sampling streams, spread across the high
// byte so the streams decorrelate even before mixing.
const (
	kindDrop uint64 = iota + 1
	kindCorrupt
	kindStall
)

// active reports whether cycle falls inside the injection window.
func (p Plan) active(cycle int64) bool {
	return cycle >= p.Spec.Start && (p.Spec.End == 0 || cycle < p.Spec.End)
}

// onLink reports whether the (router, port) site is inside the spec's link
// namespace: every link, or the one targeted directed link.
func (p Plan) onLink(router, port int) bool {
	return !p.Spec.LinkTargeted || (router == p.Spec.LinkRouter && port == p.Spec.LinkPort)
}

// sample hashes one (stream, cycle, router, port) site into [0, ppmScale).
// Same mixing discipline as the experiment layer's seed derivation: fold
// the coordinates into the seed, then two splitmix64 rounds.
func (p Plan) sample(kind uint64, cycle int64, router, port int) uint64 {
	x := p.Seed ^ uint64(cycle)*0x9E3779B97F4A7C15
	x ^= kind<<56 ^ uint64(router)<<8 ^ uint64(port)
	x = splitmix(x + 0x9E3779B97F4A7C15)
	x = splitmix(x + 0x9E3779B97F4A7C15)
	return x % ppmScale
}

// DropAt reports whether the plan drops a packet granted the (router,
// port) output link at cycle.
func (p Plan) DropAt(cycle int64, router, port int) bool {
	return p.Spec.DropPPM != 0 && p.active(cycle) && p.onLink(router, port) &&
		p.sample(kindDrop, cycle, router, port) < uint64(p.Spec.DropPPM)
}

// CorruptAt reports whether the plan corrupts a packet crossing the
// (router, port) link at cycle.
func (p Plan) CorruptAt(cycle int64, router, port int) bool {
	return p.Spec.CorruptPPM != 0 && p.active(cycle) && p.onLink(router, port) &&
		p.sample(kindCorrupt, cycle, router, port) < uint64(p.Spec.CorruptPPM)
}

// StallAt reports whether the (router, port) output link is frozen at
// cycle. Stalls are sampled per StallLen-cycle window so a fault freezes
// the link for a contiguous stretch, as a transient electrical or
// backpressure fault would.
func (p Plan) StallAt(cycle int64, router, port int) bool {
	if p.Spec.StallPPM == 0 || !p.active(cycle) || !p.onLink(router, port) {
		return false
	}
	return p.sample(kindStall, cycle/p.Spec.StallLen, router, port) < uint64(p.Spec.StallPPM)
}

// splitmix is splitmix64's output function, the same mixer the experiment
// layer derives job seeds with.
func splitmix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// DropReason distinguishes the two ways the fault layer removes a packet.
type DropReason uint8

const (
	// DropInjected: the plan dropped the packet at a link grant.
	DropInjected DropReason = iota
	// DropChecksum: a router's integrity check caught an in-flight
	// corruption and discarded the packet.
	DropChecksum
)

func (r DropReason) String() string {
	if r == DropChecksum {
		return "checksum"
	}
	return "injected"
}

// Injector is the live per-run fault state the mesh consults: the plan
// plus fault-occurrence counters. Counting lives here (not in the network
// metrics) so fault totals exist even in metrics-free runs and can be
// folded into the protocol counter map at the end of a run.
type Injector struct {
	Plan Plan

	// Drops counts plan-injected drops, ChecksumDrops packets discarded
	// by corruption detection, Corruptions in-flight corruptions
	// injected, and StallCycles link-grant cycles lost to stalls. Each
	// run builds its own Injector and ticks its routers from one
	// goroutine, so these are plain counters.
	Drops         int64
	ChecksumDrops int64
	Corruptions   int64
	StallCycles   int64
}

// DropAt, CorruptAt and StallAt wrap the plan queries with occurrence
// counting; the network calls these on its hot path.
func (i *Injector) DropAt(cycle int64, router, port int) bool {
	if !i.Plan.DropAt(cycle, router, port) {
		return false
	}
	i.Drops++
	return true
}

func (i *Injector) CorruptAt(cycle int64, router, port int) bool {
	if !i.Plan.CorruptAt(cycle, router, port) {
		return false
	}
	i.Corruptions++
	return true
}

func (i *Injector) StallAt(cycle int64, router, port int) bool {
	if !i.Plan.StallAt(cycle, router, port) {
		return false
	}
	i.StallCycles++
	return true
}
