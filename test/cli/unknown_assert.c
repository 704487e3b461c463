/* an assertion must name a variable in scope: exit 3 at the assertion */
double out;

int main() {
  out = 1.0;
  /*** SafeFlow Annotation assert(safe(nosuch)) ***/
  return 0;
}
