C     T is /B/ storage that callee F declares as X: an assertion that T is
C     independent in MAIN/10 reaches the dependence test.
      PROGRAM MAIN
      COMMON /B/ T(100)
      INTEGER IDX(100)
      INTEGER I
      DO 5 I = 1, 100
        IDX(I) = 101 - I
5     CONTINUE
      DO 10 I = 1, 100
        T(IDX(I)) = I
10    CONTINUE
      CALL F
      WRITE(*,*) T(7)
      END

      SUBROUTINE F
      COMMON /B/ X(100)
      INTEGER J
      DO 20 J = 1, 100
        X(J) = X(J) + 1
20    CONTINUE
      END
