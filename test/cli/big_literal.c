/* an integer literal beyond int64: a located diagnostic, exit 3 */
int a[99999999999999999999];

int main(void) { return 0; }
