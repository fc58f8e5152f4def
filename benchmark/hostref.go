package main

import (
	"math"
	"time"
)

// speedRef measures how fast the host is running while the benchmark
// runs. On a shared machine the simulator's host time drifts by tens of
// percent for minutes at a time with what the neighbours do to the
// memory system and the core; two fixed kernels that depend on the same
// two things drift with it, so host times corrected by the kernels'
// slowdown are about twice as steady as raw ones. The kernels are the
// driver's own and touch no code of the repository, so no change to the
// repository moves them.
//
// Every host time the benchmark reports is therefore in reference-host
// ns: raw ns ÷ the slowdown over the kernel runs made around the measured
// window, where slowdown is 1 on a host that takes refLoadNs per dependent
// cache-missing load and refHandoffNs per goroutine hand-off. The
// neighbours come and go within seconds, so each round and each set-up is
// corrected by the kernel runs next to it, not by the run's average.
// host.slowdown and the -json result carry the factors.
type speedRef struct {
	chase     []uint32  // one cycle through every slot, in shuffled order
	pos       uint32    // where the next chase continues
	loadNs    []float64 // per kernel run: ns per dependent load
	handoffNs []float64 // per kernel run: ns per goroutine round trip
}

const (
	refChaseSlots = 4 << 20 // 16 MiB of uint32: misses the private caches
	refLoads      = 100_000
	refHandoffs   = 3_000
	refRepeats    = 3 // kernel runs per sample; a round is corrected by the median of the six around it

	// The reference host: what the kernels cost on the 2-core machine the
	// baseline in README.md was measured on, at its typical speed.
	refLoadNs    = 105.0
	refHandoffNs = 450.0

	// How the simulator's host time goes with the kernels': as the load
	// kernel's slowdown to the power refLoadExp times the hand-off
	// kernel's to the power refHandoffExp. Fitted on 236 one-thread runs
	// of the seven workloads (5000 rounds) made while the machine's raw
	// speed swung by 15–45 %: over a grid of the two exponents the spread
	// of ten runs' host_ns_per_op is lowest, 5 % on average over the
	// workloads against 22 % raw, in a broad valley around these values
	// (within 1.5 points of it from 0.3/1.0 to 0.65/0.8), and in a quiet
	// hour they cost nothing against any other pair. The simulator slows
	// down more than the kernels when the machine does — the exponents
	// sum to 1.5 — and goes more with the kernel that runs on the core
	// than with the one that waits for memory. See README.md, "Host-speed
	// reference".
	refLoadExp    = 0.5
	refHandoffExp = 1.0
)

func newSpeedRef() *speedRef {
	s := &speedRef{chase: make([]uint32, refChaseSlots)}
	for i := range s.chase {
		s.chase[i] = uint32(i)
	}
	// Sattolo's shuffle: a single cycle, so a chase never gets short.
	x := uint64(0x9E3779B97F4A7C15)
	for i := len(s.chase) - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		s.chase[i], s.chase[j] = s.chase[j], s.chase[i]
	}
	return s
}

// sample runs both kernels refRepeats times (about 30 ms). Call it
// between, never inside, measured windows.
func (s *speedRef) sample() {
	for i := 0; i < refRepeats; i++ {
		s.runKernels()
	}
}

func (s *speedRef) runKernels() {
	// The chase goes on where the last one stopped, so a run never finds
	// its cache lines warm from the run before: the cycle takes 40 runs.
	t0 := time.Now()
	p := s.pos
	for i := 0; i < refLoads; i++ {
		p = s.chase[p]
	}
	s.pos = p
	t1 := time.Now()

	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	for i := 0; i < refHandoffs; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	<-pong // the peer has exited
	t2 := time.Now()

	s.loadNs = append(s.loadNs, float64(t1.Sub(t0).Nanoseconds())/refLoads)
	s.handoffNs = append(s.handoffNs, float64(t2.Sub(t1).Nanoseconds())/refHandoffs)
}

// slowdown is how much slower than on the reference host the simulator
// ran over all the kernel runs so far.
func (s *speedRef) slowdown() float64 { return s.slowdownOver(0, len(s.loadNs)) }

// runs is how many kernel runs have been made: a mark for slowdownOver.
func (s *speedRef) runs() int { return len(s.loadNs) }

// around is the slowdown over the sample before kernel run at and the
// sample that begins with it: the two that bracket a window which started
// when at runs had been made and was followed by another sample.
func (s *speedRef) around(at int) float64 { return s.slowdownOver(at-refRepeats, at+refRepeats) }

// slowdownOver is the slowdown over kernel runs [from, to), clipped to
// those made: the two kernels' slowdowns, each taken at its median run
// and raised to its exponent, multiplied.
func (s *speedRef) slowdownOver(from, to int) float64 {
	from, to = max(from, 0), min(to, len(s.loadNs))
	if from >= to {
		return 1
	}
	return math.Pow(median(s.loadNs[from:to])/refLoadNs, refLoadExp) *
		math.Pow(median(s.handoffNs[from:to])/refHandoffNs, refHandoffExp)
}
