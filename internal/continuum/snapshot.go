package continuum

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mummi/internal/units"
)

// Snapshot is one continuum frame: the paper's GridSim2D delivers one every
// 90 s of wall clock (1 µs of model time), ~374 MB in "a custom binary
// format". This is that format for mummi-go: a little-endian "GS2D" header
// followed by protein records and raw float32 fields.
type Snapshot struct {
	Time    units.SimTime
	GridN   int
	Domain  units.Length
	Fields  [][]float32
	Protein []Protein
}

var snapMagic = [4]byte{'G', 'S', '2', 'D'}

const snapVersion = uint32(1)

// WriteTo serializes the snapshot. It implements io.WriterTo.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var n int64
	put := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := put(snapMagic); err != nil {
		return n, err
	}
	hdr := []uint64{
		uint64(snapVersion),
		uint64(s.Time),
		uint64(s.GridN),
		uint64(s.Domain.Nanometers()),
		uint64(len(s.Fields)),
		uint64(len(s.Protein)),
	}
	for _, h := range hdr {
		if err := put(h); err != nil {
			return n, err
		}
	}
	for _, p := range s.Protein {
		if err := put(int64(p.ID)); err != nil {
			return n, err
		}
		if err := put(p.X); err != nil {
			return n, err
		}
		if err := put(p.Y); err != nil {
			return n, err
		}
		if err := put(int64(p.State)); err != nil {
			return n, err
		}
	}
	for _, f := range s.Fields {
		if len(f) != s.GridN*s.GridN {
			return n, fmt.Errorf("continuum: field has %d cells, grid wants %d", len(f), s.GridN*s.GridN)
		}
		if err := put(f); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadSnapshot decodes one snapshot.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("continuum: short magic: %w", err)
	}
	if magic != snapMagic {
		return nil, errors.New("continuum: bad snapshot magic")
	}
	var hdr [6]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("continuum: short header: %w", err)
		}
	}
	if hdr[0] != uint64(snapVersion) {
		return nil, fmt.Errorf("continuum: unsupported snapshot version %d", hdr[0])
	}
	gridN := int(hdr[2])
	nFields, nProt := int(hdr[4]), int(hdr[5])
	if gridN < 1 || gridN > 1<<16 || nFields < 0 || nFields > 1024 || nProt < 0 || nProt > 1<<24 {
		return nil, errors.New("continuum: implausible snapshot header")
	}
	s := &Snapshot{
		Time:   units.SimTime(hdr[1]),
		GridN:  gridN,
		Domain: units.Length(hdr[3]),
	}
	for i := 0; i < nProt; i++ {
		var id, state int64
		var x, y float64
		if err := binary.Read(br, binary.LittleEndian, &id); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &x); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &y); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &state); err != nil {
			return nil, err
		}
		s.Protein = append(s.Protein, Protein{ID: int(id), X: x, Y: y, State: int(state)})
	}
	for i := 0; i < nFields; i++ {
		f := make([]float32, gridN*gridN)
		if err := binary.Read(br, binary.LittleEndian, f); err != nil {
			return nil, fmt.Errorf("continuum: short field %d: %w", i, err)
		}
		s.Fields = append(s.Fields, f)
	}
	return s, nil
}
