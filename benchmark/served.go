package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// kvFront is what the harness itself needs from the store a server
// rides, beside the server.Store / server.BytesStore seam.
type kvFront interface {
	Stats() smrStats
	Live() int64
	Len() int
	InFlight() int
}

// servedInst is a served workload: the store, the server on a
// 127.0.0.1:0 listener in this process (real TCP through the kernel's
// loopback), and the dialled client connections.
type servedInst struct {
	sp     *spec
	seed   uint64
	front  kvFront
	srv    *serverT
	served chan error // Serve's return value
	conns  []net.Conn
}

func setupServed(sp *spec, seed uint64, tr *tracer) (*servedInst, error) {
	in := &servedInst{sp: sp, seed: seed, served: make(chan error, 1)}
	if sp.fam == servedBytes {
		kv, err := newShardedKVBytes(sp.structure, sp.scheme, sp.shards)
		if err != nil {
			return nil, err
		}
		var kbuf [8]byte
		vbuf := make([]byte, maxValueLen)
		r := newRng(seed, prefillLane+1)
		prefillKeys(sp, seed, func(key uint64) bool {
			return kv.Insert(putKey(&kbuf, key), fillValue(vbuf, fillOf(key), bimodalLen(&r)))
		})
		in.front = kv
		if tr != nil {
			in.srv = newBytesServer(tracedBytesStore{kv, tr})
		} else {
			in.srv = newBytesServer(kv)
		}
	} else {
		kv, err := newKV(sp.structure, sp.scheme)
		if err != nil {
			return nil, err
		}
		prefillKeys(sp, seed, func(key uint64) bool { return kv.Insert(key, valueOf(key)) })
		in.front = kv
		if tr != nil {
			in.srv = newServer(tracedStore{kv, tr})
		} else {
			in.srv = newServer(kv)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if tr != nil {
		ln = tracedListener{ln, tr}
	}
	go func() { in.served <- in.srv.Serve(ln) }()
	for i := 0; i < sp.clients; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			in.shutdown()
			return nil, err
		}
		if tr != nil {
			tr.registerClient(c, i)
		}
		in.conns = append(in.conns, c)
	}
	return in, nil
}

func (in *servedInst) stats() smrStats { return in.front.Stats() }
func (in *servedInst) live() int64     { return in.front.Live() }

func (in *servedInst) run(ck clock, tr *tracer) []*acc {
	accs := make([]*acc, len(in.conns))
	var wg sync.WaitGroup
	for i, c := range in.conns {
		cl := newClient(in.sp, in.seed, i, c, tr)
		accs[i] = &cl.acc
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(ck)
		}()
	}
	wg.Wait()
	return accs
}

func (in *servedInst) shutdown() error {
	for _, c := range in.conns {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := in.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	if err := <-in.served; !errors.Is(err, errServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

func (in *servedInst) finish(accs []*acc) []error {
	var errs []error
	want := int64(in.sp.prefill)
	broken := false
	for _, a := range accs {
		want += a.okSets - a.okDels
		broken = broken || a.firstErr != nil
	}
	// Conservation, asked over the wire like any client would. A client
	// that died mid-window does not know what the server applied.
	if !broken {
		if got, err := in.wireLen(); err != nil {
			errs = append(errs, err)
		} else if got != want {
			errs = append(errs, fmt.Errorf("%s: LEN is %d, want prefill + OK SETs - OK DELs = %d", in.sp.name, got, want))
		}
		if served, ok := in.srv.Metrics().Value("hyaline_server_ops_total"); ok {
			var sent int64 = 1 // the LEN above
			for _, a := range accs {
				sent += a.attempted
			}
			if int64(served) != sent {
				errs = append(errs, fmt.Errorf("%s: server counted %d frames answered, clients sent %d", in.sp.name, int64(served), sent))
			}
		}
	}
	if err := in.shutdown(); err != nil {
		errs = append(errs, err)
	}
	if n := in.front.InFlight(); n != 0 {
		errs = append(errs, fmt.Errorf("%s: %d leases still in flight after shutdown", in.sp.name, n))
	}
	return errs
}

func (in *servedInst) wireLen() (int64, error) {
	c := in.conns[0]
	c.SetDeadline(time.Now().Add(5 * time.Second))
	w, rd := newWireWriter(c), newWireReader(c)
	w.Len()
	if err := w.Flush(); err != nil {
		return 0, fmt.Errorf("LEN: %w", err)
	}
	f, err := rd.ReadFrame()
	if err != nil {
		return 0, fmt.Errorf("LEN: %w", err)
	}
	n, err := wireU64(f.Payload)
	if f.Code != statusOK || err != nil {
		return 0, fmt.Errorf("LEN: unexpected reply code %#x", f.Code)
	}
	return int64(n), nil
}

// client is one closed-loop connection: it writes a window of requests,
// waits for every reply, checks them, and only then sends the next.
type client struct {
	acc
	idx  int
	sp   *spec
	g    gen
	w    *wireWriter
	rd   *wireReader
	tr   *tracer
	wc   *waitConn // traced runs only
	ops  []op
	kbuf [8]byte
	vbuf []byte
}

func newClient(sp *spec, seed uint64, idx int, c net.Conn, tr *tracer) *client {
	cl := &client{idx: idx, sp: sp, tr: tr, ops: make([]op, sp.window)}
	parity := -1
	if tr != nil {
		parity = idx % 2
		cl.wc = &waitConn{Conn: c}
		c = cl.wc
	}
	cl.g = newGen(sp, seed, idx, parity)
	cl.w, cl.rd = newWireWriter(c), newWireReader(c)
	if sp.fam == servedBytes {
		cl.vbuf = make([]byte, maxValueLen)
	}
	return cl
}

func (cl *client) run(ck clock) {
	end := ck.end()
	begin := time.Now()
	for window := uint32(0); ; window++ {
		cl.encode()
		var encoded, flushed time.Time
		if cl.tr != nil {
			cl.tr.window[cl.idx].Store(window)
			encoded = time.Now()
		}
		err := cl.w.Flush()
		if cl.tr != nil {
			flushed = time.Now()
			cl.wc.wait = 0
		}
		if err == nil {
			err = cl.readReplies()
		}
		done := time.Now()
		cl.acc.window(ck, begin, done, len(cl.ops))
		if err != nil {
			cl.fail(len(cl.ops), fmt.Errorf("%s: connection %d: %w", cl.sp.name, cl.idx, err))
			return
		}
		if cl.tr != nil {
			t, n := cl.tr, int64(len(cl.ops))
			t.record(spRequest, cl.idx, t.at(begin), t.at(done), n)
			t.record(spClientEncode, cl.idx, t.at(begin), t.at(encoded), n)
			t.record(spClientSockWrite, cl.idx, t.at(encoded), t.at(flushed), 0)
			// Decoding is what is left of flush-to-done once the time
			// blocked in the socket, the server's turn, is taken out.
			t.record(spClientDecode, cl.idx, t.at(flushed)+int64(cl.wc.wait), t.at(done), n)
		}
		if !done.Before(end) {
			return
		}
		begin = done
	}
}

func (cl *client) encode() {
	for i := range cl.ops {
		o := cl.g.next()
		cl.ops[i] = o
		if cl.sp.fam == servedBytes {
			key := putKey(&cl.kbuf, o.key)
			switch o.kind {
			case opGet:
				cl.w.GetB(key)
			case opSet:
				cl.w.SetB(key, fillValue(cl.vbuf, fillOf(o.key), o.vlen))
			default:
				cl.w.DelB(key)
			}
			continue
		}
		switch o.kind {
		case opGet:
			cl.w.Get(o.key)
		case opSet:
			cl.w.Set(o.key, valueOf(o.key))
		default:
			cl.w.Del(o.key)
		}
	}
}

// readReplies reads one reply per request of the window, in order, and
// checks each: a GET hit must carry the value its key always has.
func (cl *client) readReplies() error {
	for _, o := range cl.ops {
		f, err := cl.rd.ReadFrame()
		if err != nil {
			return err
		}
		switch f.Code {
		case statusNil: // a miss, a SET of a present key, a DEL of an absent one
		case statusOK:
			switch o.kind {
			case opSet:
				cl.okSets++
			case opDel:
				cl.okDels++
			default:
				if !cl.hitOK(o, f.Payload) {
					cl.fail(1, fmt.Errorf("%s: GET %d returned a wrong value (%d bytes)", cl.sp.name, o.key, len(f.Payload)))
				}
			}
		default:
			cl.fail(1, fmt.Errorf("%s: reply code %#x: %s", cl.sp.name, f.Code, f.Payload))
		}
	}
	return nil
}

func (cl *client) hitOK(o op, payload []byte) bool {
	if cl.sp.fam == servedBytes {
		return len(payload) > 0 && isRunOf(payload, fillOf(o.key))
	}
	v, err := wireU64(payload)
	return err == nil && v == valueOf(o.key)
}
