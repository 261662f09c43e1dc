package par

// Pool is a persistent fork-join worker pool: k goroutines that park
// between dispatches. It exists for callers that need the fork-join shape
// of Run at a much finer grain — many short dispatch rounds, where
// spawning fresh goroutines each round would dominate the work being
// parallelized.
//
// Do(task) runs task(0..k-1), one call per worker, and returns when all
// have finished. The channel handoff gives the usual happens-before
// guarantees: writes made by the caller before Do are visible to the
// tasks, and writes made by the tasks are visible to the caller after Do
// returns — so a dispatch is a synchronization barrier, exactly like Run.
//
// Pools must be Closed when done; an unclosed pool leaks its parked
// goroutines. A Pool is not safe for concurrent Do calls.
type Pool struct {
	k      int
	cmd    []chan func(int)
	ack    chan int
	panics []any
	closed bool
}

// NewPool starts a pool of k parked workers.
func NewPool(k int) *Pool {
	if k <= 0 {
		panic("par: pool needs at least one worker")
	}
	p := &Pool{k: k, cmd: make([]chan func(int), k), ack: make(chan int, k), panics: make([]any, k)}
	for i := 0; i < k; i++ {
		p.cmd[i] = make(chan func(int), 1)
		go p.worker(i)
	}
	return p
}

// worker runs tasks from its private command channel until Close. A
// panicking task is captured (not crashed): the panic value is stored in
// the worker's slot and re-raised by Do on the dispatching goroutine, so
// failures surface where the work was requested.
func (p *Pool) worker(i int) {
	for task := range p.cmd[i] {
		p.runOne(i, task)
		p.ack <- i
	}
}

// runOne executes one task with panic capture.
func (p *Pool) runOne(i int, task func(int)) {
	defer func() {
		if r := recover(); r != nil {
			p.panics[i] = r
		}
	}()
	task(i)
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.k }

// Do runs task(i) for every worker index i in [0, k) and blocks until all
// complete. If any task panicked, Do re-raises the panic of the
// lowest-indexed failed worker after every worker has finished (a
// deterministic choice, so tests see a stable failure).
func (p *Pool) Do(task func(k int)) {
	if p.closed {
		panic("par: Do on a closed pool")
	}
	for i := 0; i < p.k; i++ {
		p.cmd[i] <- task
	}
	for i := 0; i < p.k; i++ {
		<-p.ack
	}
	var first any
	for i, r := range p.panics {
		if r != nil {
			if first == nil {
				first = r
			}
			p.panics[i] = nil
		}
	}
	if first != nil {
		panic(first)
	}
}

// Close terminates the workers. Idempotent; Do after Close panics.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for i := 0; i < p.k; i++ {
		close(p.cmd[i])
	}
}
