package transport

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"time"

	"fedsz/internal/fl"
)

// ClientConfig parameterizes RunResilientClient: a client that
// survives coordinator restarts and transient network faults by
// reconnecting with exponential backoff instead of dying on the first
// broken read. Every reconnect is a fresh registration — the server
// assigns a new identity and the client picks the federation back up
// at whatever round is current.
type ClientConfig struct {
	// Dial opens a connection to the coordinator. Required.
	Dial func() (net.Conn, error)
	// Codec encodes uplinks (nil = fl.PlainCodec).
	Codec fl.Codec
	// Train produces the local update each round. The round counter is
	// the client's cumulative count across reconnects, not the
	// server's round number. The global it is handed is lent for the
	// round (see TrainFunc): within a session the next round's model
	// overwrites it once the update has been sent, and a new session
	// starts from a fresh dict. Required.
	Train TrainFunc
	// MaxRetries is the number of consecutive failed attempts (dial
	// errors or sessions that die without completing a round) before
	// giving up (0 = 5; negative = retry forever). A session that
	// completes at least one round refills the budget: progress means
	// the federation is alive and the fault transient.
	MaxRetries int
	// BaseBackoff is the first retry delay (0 = 100ms); each further
	// consecutive failure doubles it up to MaxBackoff (0 = 10s), with
	// uniform jitter in [d/2, d) so a rebooted coordinator is not hit
	// by every client on the same tick.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// WriteTimeout bounds each protocol message write (join, update);
	// 0 writes without a deadline. A stalled coordinator then surfaces
	// as a timeout error and a reconnect, not a forever-blocked client.
	WriteTimeout time.Duration
	// Seed drives the backoff jitter (same seed, same schedule).
	Seed int64
	// Logf, if non-nil, receives retry/reconnect diagnostics.
	Logf func(format string, args ...interface{})
	// Logger, if non-nil, receives the same events structured: one
	// record per retry (with attempt number, cause and delay), per
	// successful reconnect and per give-up. Logf and Logger are
	// independent — either, both or neither may be set.
	Logger *slog.Logger
	// Sleep is the delay function (nil = time.Sleep); tests inject a
	// recorder to run the schedule on a virtual clock.
	Sleep func(d time.Duration)
}

// RunResilientClient participates in federated rounds like RunClient,
// but treats connection failure as a retriable event: it redials with
// exponential backoff and rejoins until the server sends MsgShutdown
// (clean exit, nil) or MaxRetries consecutive fruitless attempts
// exhaust the budget (the last error). Protocol violations are not
// retried — a server speaking a different protocol will not start
// speaking ours on the next dial.
func RunResilientClient(cfg ClientConfig) error {
	if cfg.Dial == nil || cfg.Train == nil {
		return errors.New("transport: resilient client needs Dial and Train")
	}
	if cfg.Codec == nil {
		cfg.Codec = fl.PlainCodec{}
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 5
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	attempts := 0 // consecutive failures since the last completed round
	total := 0    // cumulative rounds across sessions
	sessions := 0 // connections that got as far as a session
	var lastErr error
	for {
		conn, err := cfg.Dial()
		if err == nil {
			sessions++
			obsClientSessions.Inc()
			if sessions > 1 {
				obsClientReconnects.Inc()
				if cfg.Logger != nil {
					cfg.Logger.Info("reconnected", "session", sessions, "rounds_so_far", total)
				}
			}
			var rounds int
			rounds, err = runClientSession(newConnStream(conn), cfg.Codec, cfg.Train, total, cfg.WriteTimeout)
			_ = conn.Close()
			total += rounds
			if err == nil {
				return nil // MsgShutdown: the federation is done
			}
			if errors.Is(err, ErrProtocol) {
				return err
			}
			if rounds > 0 {
				attempts = 0
			}
		}
		attempts++
		lastErr = err
		if cfg.MaxRetries >= 0 && attempts > cfg.MaxRetries {
			obsClientGiveups.Inc()
			if cfg.Logger != nil {
				cfg.Logger.Error("client giving up",
					"attempts", attempts, "rounds_completed", total, "err", lastErr)
			}
			return fmt.Errorf("transport: client gave up after %d consecutive failed attempts: %w", attempts, lastErr)
		}
		d := backoffDelay(cfg.BaseBackoff, cfg.MaxBackoff, attempts, rng)
		obsClientRetries.Inc()
		obsClientBackoffNs.Add(d.Nanoseconds())
		cfg.Logf("connection attempt failed (%v); retry %d in %v", err, attempts, d)
		if cfg.Logger != nil {
			cfg.Logger.Warn("retrying after failure",
				"attempt", attempts, "backoff", d, "err", err)
		}
		cfg.Sleep(d)
	}
}

// backoffDelay computes the attempt-th (1-based) retry delay:
// base·2^(attempt−1) capped at max, jittered uniformly into [d/2, d).
func backoffDelay(base, max time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rng.Int63n(int64(half)))
}
