/* a second definition of a function: a located diagnostic, exit 3 */
int f(void) { return 1; }
int f(void) { return 2; }

int main(void) { return f(); }
