package data

import (
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Augment configures the stochastic input transformations the paper lists
// as algorithmic noise sources (random crop via shift padding, horizontal
// flip). Augmentation draws come from the loader's algorithmic stream, so
// the IMPL and CONTROL variants make them reproducible with a fixed seed.
type Augment struct {
	// Shift pads by Shift pixels and randomly crops back (a random
	// translation of up to ±Shift).
	Shift int
	// Flip enables random horizontal flips.
	Flip bool
}

// Enabled reports whether any augmentation is active.
func (a Augment) Enabled() bool { return a.Shift > 0 || a.Flip }

// Batch is one training or evaluation batch. Batches yielded by a
// streaming Epoch are views into loader-owned double buffers: the tensor,
// label and index slices are valid only until the next call to Next (or
// Close), and callers must not mutate or retain them. The materializing
// Batches form returns independently owned copies.
type Batch struct {
	X       *tensor.Tensor // (B, C, H, W)
	Labels  []int
	Indices []int // positions in the source split
}

// Loader shuffles, augments and batches a split. The shuffle order and
// augmentation draws come from the stream passed to Epoch, which the noise
// framework derives from the replica's algorithmic seed policy.
//
// Batch assembly is allocation-free at steady state: the shuffle order,
// label/index slices and tensor headers are loader-owned and reused across
// epochs, the two X buffers (double-buffered so a prefetched batch never
// overwrites the one in use) come from the shared scratch pool, and the
// augmentation shift scratch is pooled too. A Loader supports one active
// Epoch at a time; exhaust it (Next returned false) or Close it before
// starting the next.
type Loader struct {
	split    *Split
	c, h, w  int
	batch    int
	aug      Augment
	prefetch bool

	order []int       // shuffle order, reused across epochs
	bufs  [2]batchBuf // double-buffered batch assembly targets
	shift []float32   // augmentation shift scratch (pooled per epoch)
	ep    Epoch       // reused epoch state
}

// batchBuf is one assembly target: a pooled X buffer plus loader-owned
// label/index slices and a reusable tensor header.
type batchBuf struct {
	x       []float32
	labels  []int
	indices []int
	hdr     tensor.Tensor
	n       int // examples assembled into this buf
}

// NewLoader builds a loader over sp with the given batch size.
func NewLoader(d *Dataset, sp *Split, batch int, aug Augment) *Loader {
	if batch <= 0 {
		panic("data: batch size must be positive")
	}
	return &Loader{split: sp, c: d.C, h: d.H, w: d.W, batch: batch, aug: aug}
}

// SetPrefetch toggles background batch assembly: with prefetch on, a
// single helper goroutine assembles batch k+1 while the caller computes on
// batch k. The assembler is the only goroutine drawing augmentation stream
// values and it assembles batches in epoch order, so every byte of every
// batch — and the stream state after the epoch — is identical with
// prefetch on or off (TestEpochStreamingMatchesMaterialized pins this).
// Takes effect at the next Epoch call.
func (l *Loader) SetPrefetch(on bool) { l.prefetch = on }

// Epoch starts one streaming pass over the split, shuffled with draws from
// shuffleStream and augmented with draws from augStream. Either stream may
// be nil to disable that factor independently — the noise framework uses
// this to isolate data-order noise (paper Fig. 6) from augmentation noise.
// Both nil gives the fixed evaluation order.
//
// Iterate with Next; call Close to abandon an epoch early (Next returning
// false closes it automatically). The returned Epoch is loader-owned and
// valid until the next Epoch call.
func (l *Loader) Epoch(shuffleStream, augStream *rng.Stream) *Epoch {
	n := l.split.N()
	if cap(l.order) < n {
		l.order = make([]int, n)
	}
	l.order = l.order[:n]
	if shuffleStream != nil {
		shuffleStream.Split("shuffle").PermInto(l.order, n)
	} else {
		for i := range l.order {
			l.order[i] = i
		}
	}
	var aug *rng.Stream
	if augStream != nil {
		aug = augStream.Split("augment")
	}

	chw := l.c * l.h * l.w
	for i := range l.bufs {
		buf := &l.bufs[i]
		buf.x = tensor.GetScratch(l.batch * chw)
		if cap(buf.labels) < l.batch {
			buf.labels = make([]int, l.batch)
			buf.indices = make([]int, l.batch)
		}
		buf.labels = buf.labels[:l.batch]
		buf.indices = buf.indices[:l.batch]
	}
	if aug != nil && l.aug.Shift > 0 {
		l.shift = tensor.GetScratch(chw)
	}

	ep := &l.ep
	*ep = Epoch{l: l, aug: aug, n: n}
	if l.prefetch {
		ep.async = true
		ep.filled = make(chan *batchBuf, 2)
		ep.free = make(chan *batchBuf, 2)
		ep.stop = make(chan struct{})
		ep.free <- &l.bufs[0]
		ep.free <- &l.bufs[1]
		go ep.assembler()
	}
	return ep
}

// Batches is the materializing form of Epoch: the full pass as
// independently owned batches, byte-identical to the streaming iterator
// (it is a thin wrapper that copies each streamed batch out of the shared
// buffers). Tests and offline tooling use this; the training loop streams.
func (l *Loader) Batches(shuffleStream, augStream *rng.Stream) []Batch {
	ep := l.Epoch(shuffleStream, augStream)
	defer ep.Close()
	var out []Batch
	var b Batch
	for ep.Next(&b) {
		out = append(out, Batch{
			X:       b.X.Clone(),
			Labels:  append([]int(nil), b.Labels...),
			Indices: append([]int(nil), b.Indices...),
		})
	}
	return out
}

// assemble fills buf with examples order[start:end], drawing augmentation
// values in example order. Exactly one goroutine calls this at a time —
// the caller in sync mode, the single assembler goroutine in prefetch mode
// — so the stream draw sequence is identical either way.
func (l *Loader) assemble(buf *batchBuf, start, end int, aug *rng.Stream) {
	chw := l.c * l.h * l.w
	bs := end - start
	buf.n = bs
	xd := buf.x[:bs*chw]
	for bi, src := range l.order[start:end] {
		dst := xd[bi*chw : (bi+1)*chw]
		l.split.Example(src, dst)
		if aug != nil && l.aug.Enabled() {
			l.augment(aug, dst)
		}
		buf.labels[bi] = l.split.Y[src]
		buf.indices[bi] = src
	}
	tensor.FromSliceInto(&buf.hdr, xd, bs, l.c, l.h, l.w)
}

// Epoch is a streaming pass over a split. Obtain one from Loader.Epoch;
// see Batch for the lifetime of what Next yields.
type Epoch struct {
	l   *Loader
	aug *rng.Stream
	n   int

	// Sync mode: next assembly offset and which double buffer to fill.
	next int
	cur  int

	// Prefetch mode: buffers cycle caller → free → assembler → filled →
	// caller. stop aborts the assembler on early Close.
	async    bool
	filled   chan *batchBuf
	free     chan *batchBuf
	stop     chan struct{}
	inflight *batchBuf

	closed bool
}

// assembler is the prefetch goroutine: it assembles every batch of the
// epoch in order, blocking on a free buffer before each and handing the
// result to filled. It owns the augmentation stream and the shift scratch
// for the duration of the epoch.
func (e *Epoch) assembler() {
	defer close(e.filled)
	l := e.l
	for start := 0; start < e.n; start += l.batch {
		var buf *batchBuf
		select {
		case buf = <-e.free:
		case <-e.stop:
			return
		}
		end := start + l.batch
		if end > e.n {
			end = e.n
		}
		l.assemble(buf, start, end, e.aug)
		select {
		case e.filled <- buf:
		case <-e.stop:
			return
		}
	}
}

// Next advances to the next batch, filling b with views into the loader's
// buffers (see Batch for their lifetime). It returns false — and releases
// the epoch's pooled buffers — when the pass is complete.
func (e *Epoch) Next(b *Batch) bool {
	if e.closed {
		return false
	}
	var buf *batchBuf
	if e.async {
		if e.inflight != nil {
			e.free <- e.inflight
			e.inflight = nil
		}
		var ok bool
		buf, ok = <-e.filled
		if !ok {
			e.release()
			return false
		}
		e.inflight = buf
	} else {
		if e.next >= e.n {
			e.release()
			return false
		}
		end := e.next + e.l.batch
		if end > e.n {
			end = e.n
		}
		buf = &e.l.bufs[e.cur]
		e.cur ^= 1
		e.l.assemble(buf, e.next, end, e.aug)
		e.next = end
	}
	b.X = &buf.hdr
	b.Labels = buf.labels[:buf.n]
	b.Indices = buf.indices[:buf.n]
	return true
}

// Close abandons the epoch: it stops the prefetch goroutine (if any) and
// returns the pooled buffers. Safe to call multiple times and after Next
// has returned false.
func (e *Epoch) Close() {
	if e.closed {
		return
	}
	if e.async {
		close(e.stop)
		for range e.filled {
			// Drain until the assembler closes the channel.
		}
	}
	e.release()
}

// release returns the epoch's pooled buffers. Only called once the
// assembler (if any) has exited, so no goroutine still writes to them.
func (e *Epoch) release() {
	e.closed = true
	l := e.l
	for i := range l.bufs {
		tensor.PutScratch(l.bufs[i].x)
		l.bufs[i].x = nil
	}
	if l.shift != nil {
		tensor.PutScratch(l.shift)
		l.shift = nil
	}
}

// augment applies shift-crop and flip in place to one (C,H,W) example.
// The shift scratch is the loader's pooled buffer; only the single batch
// assembler calls this, so it is never shared.
func (l *Loader) augment(s *rng.Stream, img []float32) {
	if l.aug.Shift > 0 {
		dx := s.Intn(2*l.aug.Shift+1) - l.aug.Shift
		dy := s.Intn(2*l.aug.Shift+1) - l.aug.Shift
		if dx != 0 || dy != 0 {
			shifted := l.shift[:len(img)]
			for c := 0; c < l.c; c++ {
				for y := 0; y < l.h; y++ {
					sy := y + dy
					for x := 0; x < l.w; x++ {
						sx := x + dx
						var v float32
						if sy >= 0 && sy < l.h && sx >= 0 && sx < l.w {
							v = img[(c*l.h+sy)*l.w+sx]
						}
						shifted[(c*l.h+y)*l.w+x] = v
					}
				}
			}
			copy(img, shifted)
		}
	}
	if l.aug.Flip && s.Bernoulli(0.5) {
		for c := 0; c < l.c; c++ {
			for y := 0; y < l.h; y++ {
				row := img[(c*l.h+y)*l.w : (c*l.h+y+1)*l.w]
				for x, xx := 0, l.w-1; x < xx; x, xx = x+1, xx-1 {
					row[x], row[xx] = row[xx], row[x]
				}
			}
		}
	}
}
