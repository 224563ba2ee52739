package netsim

import (
	"bytes"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe(Loopback)
	defer a.Close()
	defer b.Close()
	msg := []byte("hello across the wire")
	go func() {
		if _, err := a.Write(msg); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Errorf("read %q, want %q", buf, msg)
	}
}

func TestLatencyApplied(t *testing.T) {
	link := Link{RTT: 40 * time.Millisecond}
	a, b := Pipe(link)
	defer a.Close()
	defer b.Close()

	start := time.Now()
	go a.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 18*time.Millisecond {
		t.Errorf("one-way delivery took %v, want ≥ ~20ms", elapsed)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("one-way delivery took %v, far above 20ms", elapsed)
	}
}

func TestBandwidthApplied(t *testing.T) {
	// 1 MiB at 8 MiB/s ≈ 125ms of serialization.
	link := Link{Bandwidth: 8 << 20}
	a, b := Pipe(link)
	defer a.Close()
	defer b.Close()

	payload := make([]byte, 1<<20)
	start := time.Now()
	go a.Write(payload)
	buf := make([]byte, len(payload))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 100*time.Millisecond {
		t.Errorf("1MiB at 8MiB/s delivered in %v, want ≥ ~125ms", elapsed)
	}
}

func TestSerializationQueues(t *testing.T) {
	// Two back-to-back writes must serialize: the second waits for the
	// first's transfer time.
	link := Link{Bandwidth: 4 << 20} // 256KiB = 62.5ms
	a, b := Pipe(link)
	defer a.Close()
	defer b.Close()

	start := time.Now()
	go func() {
		a.Write(make([]byte, 256<<10))
		a.Write(make([]byte, 256<<10))
	}()
	buf := make([]byte, 512<<10)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("two 256KiB writes delivered in %v, want ≥ ~125ms", elapsed)
	}
}

func TestTransferTime(t *testing.T) {
	l := Link{Bandwidth: 1 << 20}
	if got := l.TransferTime(1 << 20); got != time.Second {
		t.Errorf("TransferTime(1MiB @ 1MiB/s) = %v, want 1s", got)
	}
	if got := Loopback.TransferTime(1 << 30); got != 0 {
		t.Errorf("unlimited bandwidth TransferTime = %v, want 0", got)
	}
}

func TestBidirectional(t *testing.T) {
	a, b := Pipe(Loopback)
	defer a.Close()
	defer b.Close()
	go func() {
		buf := make([]byte, 4)
		io.ReadFull(b, buf)
		b.Write(append(buf, '!'))
	}()
	a.Write([]byte("ping"))
	buf := make([]byte, 5)
	if _, err := io.ReadFull(a, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping!" {
		t.Errorf("echo = %q", buf)
	}
}

func TestPartialReads(t *testing.T) {
	a, b := Pipe(Loopback)
	defer a.Close()
	defer b.Close()
	go a.Write([]byte("abcdef"))
	var got []byte
	for len(got) < 6 {
		buf := make([]byte, 2)
		n, err := b.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if string(got) != "abcdef" {
		t.Errorf("reassembled %q", got)
	}
}

func TestCloseUnblocksReader(t *testing.T) {
	a, b := Pipe(Loopback)
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := b.Read(buf)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-errc:
		if err != io.EOF {
			t.Errorf("Read after Close = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader still blocked after Close")
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	a, b := Pipe(Loopback)
	b.Close()
	a.Close()
	if _, err := a.Write([]byte("x")); err == nil {
		t.Error("Write after Close succeeded")
	}
}

func TestReadDeadline(t *testing.T) {
	a, b := Pipe(Loopback)
	defer a.Close()
	defer b.Close()
	b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 1)
	_, err := b.Read(buf)
	if !os.IsTimeout(err) {
		t.Errorf("Read past deadline = %v, want timeout", err)
	}
	// Clearing the deadline makes reads work again.
	b.SetReadDeadline(time.Time{})
	go a.Write([]byte("y"))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatalf("Read after clearing deadline: %v", err)
	}
}

func TestListenerAcceptDial(t *testing.T) {
	l := Listen(Loopback)
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Error(err)
			return
		}
		conn.Write(buf)
	}()

	c, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("echo!"))
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "echo!" {
		t.Errorf("echo = %q", buf)
	}
	wg.Wait()
}

func TestListenerClose(t *testing.T) {
	l := Listen(Loopback)
	l.Close()
	if _, err := l.Accept(); err == nil {
		t.Error("Accept on closed listener succeeded")
	}
	if _, err := l.Dial(); err == nil {
		t.Error("Dial on closed listener succeeded")
	}
	// Idempotent close.
	if err := l.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestManyConcurrentConns(t *testing.T) {
	l := Listen(Link{RTT: 2 * time.Millisecond})
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(conn)
		}
	}()

	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := l.Dial()
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			msg := []byte{byte(i), byte(i + 1)}
			c.Write(msg)
			buf := make([]byte, 2)
			if _, err := io.ReadFull(c, buf); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(buf, msg) {
				t.Errorf("conn %d echo mismatch", i)
			}
		}(i)
	}
	wg.Wait()
}

func TestLatencyPreservesOrder(t *testing.T) {
	link := Link{RTT: 4 * time.Millisecond}
	a, b := Pipe(link)
	defer a.Close()
	defer b.Close()
	go func() {
		for i := 0; i < 8; i++ {
			a.Write([]byte{byte(i)})
		}
	}()
	start := time.Now()
	buf := make([]byte, 8)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if buf[i] != byte(i) {
			t.Fatalf("latency reordered delivery: %v", buf)
		}
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("delivery took %v, want ≥ one-way latency", elapsed)
	}
}

func TestTable2Links(t *testing.T) {
	// Sanity-check that the Table 2 presets carry the paper's RTTs.
	want := map[string]time.Duration{
		"Oregon":     21840 * time.Microsecond,
		"N.Virginia": 62060 * time.Microsecond,
		"London":     147730 * time.Microsecond,
		"Mumbai":     230300 * time.Microsecond,
	}
	if len(Locations) != 4 {
		t.Fatalf("Locations has %d entries, want 4", len(Locations))
	}
	for _, loc := range Locations {
		if want[loc.Name] != loc.Link.RTT {
			t.Errorf("%s RTT = %v, want %v", loc.Name, loc.Link.RTT, want[loc.Name])
		}
	}
}
