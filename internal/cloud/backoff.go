package cloud

import (
	"math"
)

// The storage-retry policy: a capped exponential backoff with
// deterministic jitter, used to retry transient storage-service errors
// (network blips, throttling) without hammering the service or
// synchronizing retries across containers. The first retry waits about
// 1 s, each later one twice the last, and none more than 30 s.
const (
	backoffBaseSeconds = 1.0
	backoffFactor      = 2.0
	backoffCapSeconds  = 30.0
)

// RetryBackoff returns the summed wait across `attempts` failed tries: the
// extra seconds a transfer loses to a transient error that succeeds on the
// attempt after. It is pure arithmetic: the jitter is derived from the
// attempt number and a caller-supplied salt, so a retried execution is
// reproducible bit for bit.
func RetryBackoff(attempts int, salt int64) float64 {
	var total float64
	for i := 0; i < attempts; i++ {
		total += backoffDelay(i, salt)
	}
	return total
}

// backoffDelay returns the wait before retry attempt (0-based): the capped
// exponential base*factor^attempt, jittered to 50–100% of its value by a
// deterministic hash of (attempt, salt) — "equal jitter", which keeps the
// expected delay while decorrelating concurrent retriers.
func backoffDelay(attempt int, salt int64) float64 {
	d := backoffBaseSeconds * math.Pow(backoffFactor, float64(attempt))
	if d > backoffCapSeconds {
		d = backoffCapSeconds
	}
	return d/2 + d/2*jitter01(attempt, salt)
}

// jitter01 maps (attempt, salt) to [0, 1) with a splitmix64-style hash:
// deterministic, uniform enough to decorrelate retries, dependency-free.
func jitter01(attempt int, salt int64) float64 {
	z := uint64(salt) + uint64(attempt)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
