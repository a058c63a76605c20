package executor

import (
	"fmt"
	"reflect"
	"testing"

	"perm/internal/algebra"
	"perm/internal/spill"
	"perm/internal/sql"
	"perm/internal/value"
)

// mergeFixture writes test inputs through an order's own encoder, so every
// case reads back exactly what the operators would have spilled.
type mergeFixture struct {
	t   *testing.T
	ctx *Context
	reg fileReg
}

func newMergeFixture(t *testing.T) *mergeFixture {
	ctx := NewContext(nil)
	ctx.Mem = NewMemTracker(1<<20, t.TempDir())
	t.Cleanup(ctx.Mem.Cleanup)
	return &mergeFixture{t: t, ctx: ctx}
}

func (fx *mergeFixture) file(ord *mergeOrder, recs []mergeRec) *spill.File {
	f, err := fx.reg.create(fx.ctx)
	if err != nil {
		fx.t.Fatal(err)
	}
	var buf []byte
	for i := range recs {
		buf = ord.encode(buf[:0], &recs[i])
		if err := f.Append(buf); err != nil {
			fx.t.Fatal(err)
		}
	}
	return f
}

func ints(vs ...int64) value.Row {
	row := make(value.Row, len(vs))
	for i, v := range vs {
		row[i] = value.NewInt(v)
	}
	return row
}

// TestMerger drives the one k-way merger through each of its three orders.
// Every multi-file case uses more than mergeFanIn inputs, so what it asserts
// holds through a fan-in reduction pass too.
func TestMerger(t *testing.T) {
	const nFiles = mergeFanIn + 6
	// The sort key is computed, so it rides behind the row's two columns,
	// which stay free to tell the files apart.
	byKey := newSortOrder([]algebra.SortKey{{Expr: &algebra.Bin{Op: sql.OpAdd,
		L: &algebra.ColIdx{Idx: 0, Typ: value.KindInt}, R: &algebra.Const{Val: value.NewInt(0)}}}}, 2).runOrder()

	cases := []struct {
		name   string
		ord    *mergeOrder
		files  func() [][]mergeRec
		render func(r *mergeRec) string
		want   func() []string
	}{
		{
			// Every run holds the same two keys: ties across runs must surface
			// in run order, and within a run in written order.
			name: "sort runs: equal keys keep run order",
			ord:  byKey,
			files: func() (fs [][]mergeRec) {
				for f := int64(0); f < nFiles; f++ {
					fs = append(fs, []mergeRec{
						{keys: ints(f, 0, 0)},
						{keys: ints(f, 1, 0)},
						{keys: ints(f, 2, 1)},
					})
				}
				return fs
			},
			render: func(r *mergeRec) string {
				return fmt.Sprint(r.keys[2].Int(), r.row[0].Int(), r.row[1].Int(), len(r.row))
			},
			want: func() (w []string) {
				for f := 0; f < nFiles; f++ {
					w = append(w, fmt.Sprint(0, f, 0, 2), fmt.Sprint(0, f, 1, 2))
				}
				for f := 0; f < nFiles; f++ {
					w = append(w, fmt.Sprint(1, f, 2, 2))
				}
				return w
			},
		},
		{
			name: "sequence-tagged outputs: ascending sequence",
			ord:  seqOrder,
			files: func() (fs [][]mergeRec) {
				for f := uint64(0); f < nFiles; f++ {
					fs = append(fs, []mergeRec{
						{seq: f, row: ints(int64(f))},
						{seq: f + nFiles, row: ints(int64(f + nFiles))},
						{seq: f + 2*nFiles, row: ints(int64(f + 2*nFiles))},
					})
				}
				return fs
			},
			render: func(r *mergeRec) string { return fmt.Sprint(r.seq, r.row[0].Int()) },
			want: func() (w []string) {
				for s := 0; s < 3*nFiles; s++ {
					w = append(w, fmt.Sprint(s, s))
				}
				return w
			},
		},
		{
			// "a" and "z" sit in every run, "m<f%5>" in a fifth of them: each
			// element surfaces once.
			name: "DISTINCT runs: equal keys surface once",
			ord:  elemOrder,
			files: func() (fs [][]mergeRec) {
				for f := 0; f < nFiles; f++ {
					m := fmt.Sprintf("m%d", f%5)
					fs = append(fs, []mergeRec{
						{key: []byte("a"), val: value.NewString("a")},
						{key: []byte(m), val: value.NewString(m)},
						{key: []byte("z"), val: value.NewString("z")},
					})
				}
				return fs
			},
			render: func(r *mergeRec) string { return string(r.key) + "=" + r.val.Str() },
			want:   func() []string { return []string{"a=a", "m0=m0", "m1=m1", "m2=m2", "m3=m3", "m4=m4", "z=z"} },
		},
		{
			name: "empty and single-record files",
			ord:  seqOrder,
			files: func() [][]mergeRec {
				return [][]mergeRec{nil, {{seq: 5, row: ints(5)}}, nil, {{seq: 2, row: ints(2)}}, nil}
			},
			render: func(r *mergeRec) string { return fmt.Sprint(r.seq) },
			want:   func() []string { return []string{"2", "5"} },
		},
		{
			name:   "no files",
			ord:    seqOrder,
			files:  func() [][]mergeRec { return nil },
			render: func(r *mergeRec) string { return "" },
			want:   func() []string { return nil },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newMergeFixture(t)
			var files []*spill.File
			for _, recs := range tc.files() {
				files = append(files, fx.file(tc.ord, recs))
			}
			m, err := newMerger(fx.ctx, &fx.reg, tc.ord, files)
			if err != nil {
				t.Fatal(err)
			}
			if len(files) > mergeFanIn && len(fx.reg.files) == len(files) {
				t.Fatalf("%d inputs merged without a reduction pass", len(files))
			}
			var got []string
			for r := m.head(); r != nil; r = m.head() {
				got = append(got, tc.render(r))
				if err := m.step(); err != nil {
					t.Fatal(err)
				}
			}
			if want := tc.want(); !reflect.DeepEqual(got, want) {
				t.Errorf("merged %d records:\n got %v\nwant %v", len(got), got, want)
			}
			// A drained merger has closed (and so removed) every file itself.
			if live := fx.ctx.Mem.Pool().Live(); live != 0 {
				t.Errorf("%d spill files live after the merge drained", live)
			}
		})
	}
}

// TestMergerCloseMidMerge: a merger abandoned part-way — a LIMIT above a
// spilled sort, a cancelled query — releases every file it still holds,
// reduction-pass outputs included.
func TestMergerCloseMidMerge(t *testing.T) {
	fx := newMergeFixture(t)
	var files []*spill.File
	for f := uint64(0); f < mergeFanIn+6; f++ {
		files = append(files, fx.file(seqOrder, []mergeRec{
			{seq: f, row: ints(1)}, {seq: f + 1000, row: ints(2)}, {seq: f + 2000, row: ints(3)},
		}))
	}
	m, err := newMerger(fx.ctx, &fx.reg, seqOrder, files)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if row, err := m.Next(); err != nil || row == nil {
			t.Fatalf("Next %d = %v, %v", i, row, err)
		}
	}
	if live := fx.ctx.Mem.Pool().Live(); live == 0 {
		t.Fatal("no file live mid-merge: the test would prove nothing")
	}
	m.Close()
	if live := fx.ctx.Mem.Pool().Live(); live != 0 {
		t.Errorf("%d spill files live after Close", live)
	}
	if row, err := m.Next(); row != nil || err != nil {
		t.Errorf("Next after Close = %v, %v", row, err)
	}
}
