package httpapi

import (
	"testing"
	"time"
)

// TestRetryAfterSecs pins the derivation of every 503 hint — the router's
// from its probe interval, the server's from ShedRetryAfter: whole seconds,
// rounded up, never below 1 (the header has no sub-second form, and a zero
// would tell clients not to wait at all).
func TestRetryAfterSecs(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{25 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1400 * time.Millisecond, "2"},
		{1500 * time.Millisecond, "2"},
		{2 * time.Second, "2"},
		{10 * time.Second, "10"},
	} {
		if got := RetryAfterSecs(tc.d); got != tc.want {
			t.Errorf("RetryAfterSecs(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}
