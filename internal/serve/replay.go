package serve

// Replay drives a recorded traffic trace through a live deployment the
// way the CLI's -replay mode does: N concurrent clients issue the
// trace's feature vectors as fast as the runtime admits them, and the
// result reports the achieved rate plus accuracy against the trace's
// ground-truth labels. Sheds are counted, not retried — the replayer
// measures the deployment's real admission behaviour under offered load.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Classifier is the serving interface a replay drives: the Runtime, the
// root package's Endpoint handle, and internal/stream's model adapters
// all satisfy it.
type Classifier interface {
	Classify(x []float64) (int, error)
}

// ReplayResult summarizes one replayed trace.
type ReplayResult struct {
	// Requests is the trace length; Issued the requests actually sent
	// (== Requests unless the replay was interrupted); Delivered the
	// classifications that came back; Dropped the requests shed by
	// backpressure; Errors the inference failures.
	Requests, Issued, Delivered, Dropped, Errors int
	// Correct counts delivered classifications matching the trace label
	// (0 when the trace carries no labels).
	Correct int
	// Elapsed is the wall-clock replay duration.
	Elapsed time.Duration
	// Rate is delivered classifications per second.
	Rate float64
	// Accuracy is Correct/Delivered (0 when nothing was delivered or the
	// trace carries no labels).
	Accuracy float64
	// OfferedRate is issued requests per second — set only by
	// ReplayBurst, where issuance is paced rather than service-bound.
	OfferedRate float64
}

// Replay streams xs through c from `clients` concurrent goroutines.
// labels may be nil (accuracy is then not computed); otherwise it must
// be parallel to xs. Requests shed with ErrOverloaded are counted and
// skipped; any other classification error counts in Errors.
func Replay(c Classifier, xs [][]float64, labels []int, clients int) (ReplayResult, error) {
	return ReplayRun(context.Background(), c, xs, labels, clients, nil)
}

// ReplayRun is Replay with interruption and recording: when ctx is
// cancelled the clients stop issuing new requests (requests already
// issued still deliver — graceful drain, not abandonment), and when
// record is non-nil (len(xs), pre-filled by the caller) the class of
// sample i is stored at record[i] (-1 for shed or failed requests) so a
// fixed-seed replay's output can be compared byte-for-byte across
// serving paths.
func ReplayRun(ctx context.Context, c Classifier, xs [][]float64, labels []int, clients int, record []int) (ReplayResult, error) {
	if err := checkReplay(c, xs, labels, record); err != nil {
		return ReplayResult{}, err
	}
	var cursor atomic.Int64
	next := func() (int, bool) {
		i := int(cursor.Add(1) - 1)
		return i, i < len(xs)
	}
	return replayLoop(ctx, c, xs, labels, clients, record, next), nil
}

// checkReplay rejects a replay whose trace, labels and record disagree.
func checkReplay(c Classifier, xs [][]float64, labels, record []int) error {
	if c == nil {
		return fmt.Errorf("serve: replay needs a classifier")
	}
	if labels != nil && len(labels) != len(xs) {
		return fmt.Errorf("serve: replay trace has %d samples but %d labels", len(xs), len(labels))
	}
	if record != nil && len(record) != len(xs) {
		return fmt.Errorf("serve: replay trace has %d samples but %d record slots", len(xs), len(record))
	}
	return nil
}

// replayLoop runs the replay's clients. Each takes the next sample index
// from next — a shared cursor (closed loop) or the burst pacer's arrival
// queue (open loop) — until next reports the trace exhausted or ctx is
// cancelled, and tallies the outcome of every request it issued.
func replayLoop(ctx context.Context, c Classifier, xs [][]float64, labels []int, clients int, record []int, next func() (int, bool)) ReplayResult {
	clients = min(max(clients, 1), len(xs))
	var issued, delivered, dropped, errs, correct atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(clients)
	for w := 0; w < clients; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := next()
				if !ok || ctx.Err() != nil {
					return
				}
				issued.Add(1)
				class, err := c.Classify(xs[i])
				switch {
				case errors.Is(err, ErrOverloaded):
					dropped.Add(1)
					if record != nil {
						record[i] = -1
					}
				case err != nil:
					errs.Add(1)
					if record != nil {
						record[i] = -1
					}
				default:
					delivered.Add(1)
					if record != nil {
						record[i] = class
					}
					if labels != nil && class == labels[i] {
						correct.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	res := ReplayResult{
		Requests:  len(xs),
		Issued:    int(issued.Load()),
		Delivered: int(delivered.Load()),
		Dropped:   int(dropped.Load()),
		Errors:    int(errs.Load()),
		Correct:   int(correct.Load()),
		Elapsed:   time.Since(start),
	}
	if res.Elapsed > 0 {
		res.Rate = float64(res.Delivered) / res.Elapsed.Seconds()
	}
	if res.Delivered > 0 && labels != nil {
		res.Accuracy = float64(res.Correct) / float64(res.Delivered)
	}
	return res
}

// BurstOptions shapes ReplayBurst's offered load: a baseline arrival
// rate with periodic spikes at Factor× the mean, the volumetric-burst
// workload that exercises the ring scheduler's shed-at-the-door
// backpressure.
type BurstOptions struct {
	// MeanRate is the target mean offered load in requests/second,
	// averaged over quiet and burst phases. Required (> 0);
	// CalibrateRate derives it from a sequential warmup.
	MeanRate float64
	// Factor is the burst-phase rate multiplier. Default 100.
	Factor float64
	// Burst is the length of each burst window. Default 2ms.
	Burst time.Duration
	// Period is the distance between burst starts. Default 50ms.
	Period time.Duration
}

func (o BurstOptions) withDefaults() BurstOptions {
	if o.Factor <= 1 {
		o.Factor = 100
	}
	if o.Burst <= 0 {
		o.Burst = 2 * time.Millisecond
	}
	if o.Period <= o.Burst {
		o.Period = 50 * time.Millisecond
	}
	return o
}

// baseRate returns the quiet-phase rate b such that the duty-cycle mean
// b·(1 + duty·(Factor-1)) equals MeanRate.
func (o BurstOptions) baseRate() float64 {
	duty := float64(o.Burst) / float64(o.Period)
	return o.MeanRate / (1 + duty*(o.Factor-1))
}

// CalibrateRate measures c's sequential service rate over the first
// 256 rows of xs (fewer if the trace is shorter) and returns half of it:
// the mean offered load a burst replay targets, loaded enough that
// batching matters and unsaturated enough that the quiet phase stays
// under capacity, so sheds come from the burst windows. The warmup
// requests count in c's stats. A classify error fails the calibration.
func CalibrateRate(c Classifier, xs [][]float64) (float64, error) {
	n := min(len(xs), 256)
	start := time.Now()
	for _, x := range xs[:n] {
		if _, err := c.Classify(x); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(n) / elapsed.Seconds() / 2, nil
}

// ReplayBurst replays xs like ReplayRun but paces issuance with a token
// bucket whose fill rate alternates between the quiet baseline and
// Factor× bursts: offered-load spikes arrive regardless of whether the
// deployment keeps up, so sheds measure real backpressure rather than a
// closed-loop client backing off. The pacer refills on a coarse tick —
// a whole burst window's tokens land in a couple of clumps, which is
// exactly the concurrent-arrival pattern that overflows a slot ring.
// Sheds are counted, not retried. Delivered results still verify
// against labels/record the same way ReplayRun's do.
func ReplayBurst(ctx context.Context, c Classifier, xs [][]float64, labels []int, clients int, record []int, opts BurstOptions) (ReplayResult, error) {
	if err := checkReplay(c, xs, labels, record); err != nil {
		return ReplayResult{}, err
	}
	if opts.MeanRate <= 0 {
		return ReplayResult{}, fmt.Errorf("serve: burst replay needs a positive mean rate")
	}
	o := opts.withDefaults()
	base := o.baseRate()

	// The pacer releases sample indices into a buffered arrival queue on
	// the offered-load schedule; clients drain it. The queue is sized for
	// the whole trace so the pacer never blocks — arrivals are
	// independent of service.
	arrivals := make(chan int, len(xs))
	go func() {
		defer close(arrivals)
		const tick = 500 * time.Microsecond
		start := time.Now()
		released := 0
		var due float64
		prev := time.Duration(0)
		for released < len(xs) {
			if ctx.Err() != nil {
				return
			}
			time.Sleep(tick)
			now := time.Since(start)
			// Integrate the offered rate over [prev, now), stepping
			// through quiet/burst phase boundaries of each period.
			for prev < now {
				phase := prev % o.Period
				rate := base
				segEnd := prev + (o.Period - phase)
				if phase < o.Burst {
					rate = base * o.Factor
					segEnd = prev + (o.Burst - phase)
				}
				if segEnd > now {
					segEnd = now
				}
				due += rate * (segEnd - prev).Seconds()
				prev = segEnd
			}
			for released < len(xs) && float64(released) < due {
				arrivals <- released
				released++
			}
		}
	}()

	res := replayLoop(ctx, c, xs, labels, clients, record, func() (int, bool) {
		i, ok := <-arrivals
		return i, ok
	})
	if res.Elapsed > 0 {
		res.OfferedRate = float64(res.Issued) / res.Elapsed.Seconds()
	}
	return res, nil
}
