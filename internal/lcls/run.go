package lcls

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"arams/internal/imgproc"
)

// Run is a stored acquisition: a sequence of equal-size frames with
// integer labels (class, or −1 when unlabeled), standing in for the
// experiment runs (e.g. xppc00121 run 510) the paper reads through
// psana. Runs serialize to a compact binary format so example programs
// can write and re-read them like offline data.
type Run struct {
	Experiment string
	RunNumber  int
	Detector   string
	Width      int
	Height     int
	Frames     []*imgproc.Image
	Labels     []int
}

// Append adds a frame with its label, validating the shape.
func (r *Run) Append(im *imgproc.Image, label int) {
	if len(r.Frames) == 0 && r.Width == 0 {
		r.Width, r.Height = im.W, im.H
	}
	if im.W != r.Width || im.H != r.Height {
		panic(fmt.Sprintf("lcls: frame %d×%d does not match run %d×%d", im.W, im.H, r.Width, r.Height))
	}
	r.Frames = append(r.Frames, im)
	r.Labels = append(r.Labels, label)
}

// Len returns the number of frames.
func (r *Run) Len() int { return len(r.Frames) }

const runMagic = uint32(0x4c434c53) // "LCLS"

// WriteTo serializes the run. Format: magic, version, header strings,
// dims, frame count, then per frame a label and raw float64 pixels in
// little endian.
func (r *Run) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v interface{}) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	writeStr := func(s string) error {
		if err := write(uint32(len(s))); err != nil {
			return err
		}
		m, err := bw.WriteString(s)
		n += int64(m)
		return err
	}
	if err := write(runMagic); err != nil {
		return n, err
	}
	if err := write(uint32(1)); err != nil {
		return n, err
	}
	if err := writeStr(r.Experiment); err != nil {
		return n, err
	}
	if err := write(int64(r.RunNumber)); err != nil {
		return n, err
	}
	if err := writeStr(r.Detector); err != nil {
		return n, err
	}
	if err := write(int64(r.Width)); err != nil {
		return n, err
	}
	if err := write(int64(r.Height)); err != nil {
		return n, err
	}
	if err := write(int64(len(r.Frames))); err != nil {
		return n, err
	}
	for i, im := range r.Frames {
		if err := write(int64(r.Labels[i])); err != nil {
			return n, err
		}
		for _, px := range im.Pix {
			if err := write(math.Float64bits(px)); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// decodeChunk bounds the byte buffer ReadRun decodes pixels through.
const decodeChunk = 64 << 10

// ReadRun deserializes a run written by WriteTo. Pixels are read in
// bounded chunks and each frame's pixel slice grows only as its bytes
// arrive, so a header claiming huge frames costs no more memory than
// the bytes actually present.
func ReadRun(rd io.Reader) (*Run, error) {
	br := bufio.NewReader(rd)
	read := func(v interface{}) error { return binary.Read(br, binary.LittleEndian, v) }
	readStr := func() (string, error) {
		var l uint32
		if err := read(&l); err != nil {
			return "", err
		}
		if l > 1<<20 {
			return "", fmt.Errorf("lcls: implausible string length %d", l)
		}
		buf := make([]byte, l)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	var magic, version uint32
	if err := read(&magic); err != nil {
		return nil, err
	}
	if magic != runMagic {
		return nil, fmt.Errorf("lcls: bad magic %#x", magic)
	}
	if err := read(&version); err != nil {
		return nil, err
	}
	if version != 1 {
		return nil, fmt.Errorf("lcls: unsupported run version %d", version)
	}
	r := &Run{}
	var err error
	if r.Experiment, err = readStr(); err != nil {
		return nil, err
	}
	var tmp int64
	if err = read(&tmp); err != nil {
		return nil, err
	}
	r.RunNumber = int(tmp)
	if r.Detector, err = readStr(); err != nil {
		return nil, err
	}
	var w, h int64
	if err = read(&w); err != nil {
		return nil, err
	}
	if err = read(&h); err != nil {
		return nil, err
	}
	// Bound each side before multiplying so the product cannot wrap.
	if w < 0 || h < 0 || w > 1<<28 || h > 1<<28 || w*h > 1<<28 {
		return nil, fmt.Errorf("lcls: implausible frame size %d×%d", w, h)
	}
	r.Width, r.Height = int(w), int(h)
	var count int64
	if err = read(&count); err != nil {
		return nil, err
	}
	if count < 0 || count > 1<<24 {
		return nil, fmt.Errorf("lcls: implausible frame count %d", count)
	}
	npix := r.Width * r.Height
	chunk := make([]byte, 8*min(npix, decodeChunk/8))
	for i := int64(0); i < count; i++ {
		var label int64
		if err = read(&label); err != nil {
			return nil, err
		}
		pix := make([]float64, 0, len(chunk)/8)
		for len(pix) < npix {
			b := chunk[:8*min(npix-len(pix), len(chunk)/8)]
			if _, err = io.ReadFull(br, b); err != nil {
				return nil, err
			}
			for ; len(b) >= 8; b = b[8:] {
				pix = append(pix, math.Float64frombits(binary.LittleEndian.Uint64(b)))
			}
		}
		r.Frames = append(r.Frames, &imgproc.Image{W: r.Width, H: r.Height, Pix: pix})
		r.Labels = append(r.Labels, int(label))
	}
	return r, nil
}
