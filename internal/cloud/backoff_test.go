package cloud

import (
	"math"
	"testing"
)

// full is the un-jittered delay of an attempt: 1 s doubling, capped at 30 s.
func full(attempt int) float64 {
	return math.Min(math.Pow(2, float64(attempt)), 30)
}

// TestBackoffDelayBoundsAndGrowth: each delay lies in [d/2, d) of the
// capped exponential d, which doubles from 1 s per attempt.
func TestBackoffDelayBoundsAndGrowth(t *testing.T) {
	for attempt := 0; attempt < 10; attempt++ {
		d, f := backoffDelay(attempt, 1), full(attempt)
		if d < f/2 || d >= f {
			t.Errorf("attempt %d: delay %g outside [%g, %g)", attempt, d, f/2, f)
		}
	}
	if full(4) != 16 || full(5) != 30 {
		t.Fatalf("the policy's un-jittered delays are %g and %g at attempts 4 and 5", full(4), full(5))
	}
}

func TestBackoffDeterministic(t *testing.T) {
	if backoffDelay(3, 9) != backoffDelay(3, 9) || RetryBackoff(3, 9) != RetryBackoff(3, 9) {
		t.Error("same (attempt, salt) gave different delays")
	}
	if backoffDelay(3, 9) == backoffDelay(3, 10) {
		t.Error("different salts gave identical jitter")
	}
}

func TestBackoffTotalDelay(t *testing.T) {
	var sum float64
	for i := 0; i < 4; i++ {
		sum += backoffDelay(i, 77)
	}
	if got := RetryBackoff(4, 77); got != sum {
		t.Errorf("RetryBackoff = %g, want the sum of per-attempt delays %g", got, sum)
	}
	if RetryBackoff(0, 1) != 0 {
		t.Error("zero attempts should cost nothing")
	}
}

// TestBackoffCapSaturation: from attempt 5 on, where 2^5 crosses the 30 s
// cap, every attempt draws from the same [15, 30) band: the policy must not
// keep growing, overflow, or collapse for very large attempt numbers.
func TestBackoffCapSaturation(t *testing.T) {
	t.Run("default policy", func(t *testing.T) {
		for _, attempt := range []int{5, 6, 15, 63, 200, 1 << 20} {
			d := backoffDelay(attempt, 42)
			if math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("attempt %d: non-finite delay %g", attempt, d)
			}
			if d < backoffCapSeconds/2 || d >= backoffCapSeconds {
				t.Errorf("attempt %d: saturated delay %g outside [%g, %g)",
					attempt, d, backoffCapSeconds/2, backoffCapSeconds)
			}
		}
		// Saturation also bounds the total: n attempts never cost more
		// than n caps.
		if got, lim := RetryBackoff(50, 42), 50*backoffCapSeconds; got >= lim {
			t.Errorf("RetryBackoff(50) = %g, want < %g", got, lim)
		}
	})
}

// TestBackoffJitterDeterminismAcrossSeeds: for a grid of (attempt, salt)
// pairs the jittered delay is a pure function — recomputing gives the
// identical float — while distinct salts decorrelate: across many salts
// the same attempt must not produce a constant, and the empirical mean
// stays near the 75%-of-full "equal jitter" center.
func TestBackoffJitterDeterminismAcrossSeeds(t *testing.T) {
	for attempt := 0; attempt <= 6; attempt++ {
		f := full(attempt)
		distinct := map[float64]bool{}
		var sum float64
		const salts = 512
		for salt := int64(0); salt < salts; salt++ {
			d1 := backoffDelay(attempt, salt)
			d2 := backoffDelay(attempt, salt)
			if d1 != d2 {
				t.Fatalf("attempt %d salt %d: %g then %g — jitter not deterministic", attempt, salt, d1, d2)
			}
			distinct[d1] = true
			sum += d1
		}
		if len(distinct) < salts/2 {
			t.Errorf("attempt %d: only %d distinct delays across %d salts", attempt, len(distinct), salts)
		}
		mean := sum / salts
		if mean < 0.70*f || mean > 0.80*f {
			t.Errorf("attempt %d: mean delay %g not near the equal-jitter center %g", attempt, mean, 0.75*f)
		}
	}
}

// TestBackoffZeroAttemptEdge pins the edge semantics at and below zero:
// attempt 0 is the 1 s base band, and a retry sequence of zero or fewer
// attempts costs nothing.
func TestBackoffZeroAttemptEdge(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		for _, salt := range []int64{0, 1, -9, 1 << 40} {
			if d0 := backoffDelay(0, salt); d0 < 0.5 || d0 >= 1 {
				t.Errorf("salt %d: attempt-0 delay %g outside [0.5, 1)", salt, d0)
			}
			for _, attempts := range []int{0, -3} {
				if got := RetryBackoff(attempts, salt); got != 0 {
					t.Errorf("salt %d: RetryBackoff(%d) = %g, want 0", salt, attempts, got)
				}
			}
		}
	})
}
