// A parallel reduction and a partially unrolled loop: under
// `minicc -O1 -run --stats` every stats component has something to count.
int a[64];
int main(void) {
  int s = 0;
  #pragma omp parallel for reduction(+: s)
  for (int i = 0; i < 64; i += 1) {
    a[i] = i;
    s += i;
  }
  #pragma omp unroll partial(2)
  for (int j = 0; j < 10; j += 1)
    s += a[j];
  return s;
}
