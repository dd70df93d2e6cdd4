package ptrfree

import (
	"reflect"
	"testing"
	"unsafe"
)

func TestHasPointers(t *testing.T) {
	type flat struct {
		a uint32
		b uint64
		c [4]int16
	}
	for _, tc := range []struct {
		v    any
		want bool
	}{
		{uint64(0), false},
		{flat{}, false},
		{[0]*int{}, false},
		{[2]flat{}, false},
		{struct{ f flat }{}, false},
		{"", true},
		{[]int(nil), true},
		{(*int)(nil), true},
		{unsafe.Pointer(nil), true},
		{map[int]int(nil), true},
		{(chan int)(nil), true},
		{func() {}, true},
		{struct{ x any }{}, true},
		{[1]struct{ s string }{}, true},
		{struct {
			f flat
			p *flat
		}{}, true},
	} {
		if got := HasPointers(reflect.TypeOf(tc.v)); got != tc.want {
			t.Errorf("HasPointers(%T) = %v, want %v", tc.v, got, tc.want)
		}
	}
}
