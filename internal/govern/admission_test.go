package govern

import (
	"context"
	"sync"
	"testing"
	"time"

	"negmine/internal/fault"
)

func mustAcquire(t *testing.T, c *Controller) func() {
	t.Helper()
	rel, shed := c.Acquire(context.Background())
	if shed != nil {
		t.Fatalf("Acquire: %v", shed)
	}
	return rel
}

func TestAcquireReleaseBasic(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 2})
	r1 := mustAcquire(t, c)
	r2 := mustAcquire(t, c)
	if got := c.Stats().Inflight; got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
	r1()
	r2()
	s := c.Stats()
	if s.Inflight != 0 || s.Admitted != 2 || s.Shed() != 0 {
		t.Fatalf("after release: %+v", s)
	}
	// Double release is harmless.
	r1()
	if got := c.Stats().Inflight; got != 0 {
		t.Fatalf("double release corrupted inflight: %d", got)
	}
}

func TestQueueFullSheds(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, MaxQueue: 1})
	release := mustAcquire(t, c)
	defer release()

	// One waiter fits the queue.
	done := make(chan struct{})
	go func() {
		rel, shed := c.Acquire(context.Background())
		if shed == nil {
			rel()
		}
		close(done)
	}()
	waitFor(t, func() bool { return c.Stats().Queued == 1 })

	// The next request finds the queue full and is shed.
	if _, shed := c.Acquire(context.Background()); shed == nil || shed.Reason != ShedQueueFull {
		t.Fatalf("shed = %v, want queue-full", shed)
	}
	release()
	<-done
	if s := c.Stats(); s.ShedQueueFull != 1 || s.QueueHighWater != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestQueuedRequestDeadlineSheds(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, MaxQueue: 4})
	release := mustAcquire(t, c)
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, shed := c.Acquire(ctx); shed == nil || shed.Reason != ShedDeadline {
		t.Fatalf("shed = %v, want deadline", shed)
	}
	if s := c.Stats(); s.Queued != 0 {
		t.Fatalf("expired waiter left in queue: %+v", s)
	}
}

func TestFIFOGrantOrder(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, MaxQueue: 8})
	release := mustAcquire(t, c)

	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, shed := c.Acquire(context.Background())
			if shed != nil {
				t.Errorf("waiter %d shed: %v", i, shed)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			rel()
		}()
		// Serialize enqueue order so FIFO is observable.
		waitFor(t, func() bool { return c.Stats().Queued == i+1 })
	}
	release()
	wg.Wait()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("grant order = %v, want [0 1 2]", order)
	}
}

func TestQueueFullFailpointForcesShed(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, MaxQueue: 64})
	release := mustAcquire(t, c)
	defer release()

	defer fault.Enable(PointQueueFull, fault.Error("injected saturation"))()
	if _, shed := c.Acquire(context.Background()); shed == nil || shed.Reason != ShedQueueFull {
		t.Fatalf("shed = %v, want injected queue-full", shed)
	}
	if s := c.Stats(); s.ShedQueueFull != 1 || s.Queued != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLimiterStallFailpoint(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 4})

	defer fault.Enable(PointLimiterStall, fault.Error("stalled"), fault.OnHit(1))()
	if _, shed := c.Acquire(context.Background()); shed == nil || shed.Reason != ShedStall {
		t.Fatalf("shed = %v, want limiter-stall", shed)
	}
	// Disarmed after the first hit: subsequent admissions are normal.
	mustAcquire(t, c)()
	if s := c.Stats(); s.ShedStall != 1 || s.Admitted != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
